"""Unit tests for the Cluster container."""

from repro.cluster import Cluster, FUPool


def make_cluster(cid=0):
    pool = FUPool(2, 1, 1, 1, 2, 1)
    return Cluster(cid, iq_size=16, n_pregs=112, fupool=pool)


def test_iq_for_selects_side():
    cluster = make_cluster()
    assert cluster.iq_for(True) is cluster.iq_int
    assert cluster.iq_for(False) is cluster.iq_fp


def test_occupancy_sums_both_queues():
    cluster = make_cluster()

    class U:
        order = 0

    cluster.iq_int._entries.append(U())
    cluster.iq_fp._entries += [U(), U()]
    assert cluster.occupancy == 3


def test_register_file_sized_as_requested():
    cluster = make_cluster()
    assert cluster.regfile.n_pregs == 112


def test_repr_mentions_id_and_queues():
    text = repr(make_cluster(3))
    assert "Cluster 3" in text and "iq_int" in text
