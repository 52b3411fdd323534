"""Test set-up: the suite's tests import the checkout's ``src/repro``."""

from common import use_checkout_src

use_checkout_src()
