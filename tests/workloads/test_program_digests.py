"""Pinned stand-in programs: one sha256 per (workload, dataset, seed).

Each digest covers every static instruction's (op, dest, srcs, imm,
target, pc) and the initial memory image, so a refactor of the
workload builders that is meant to leave the programs alone must leave
every digest unchanged.  A change that is meant to alter a stand-in
recomputes them with ``python tests/workloads/test_program_digests.py``
and says why.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.workloads import build_workload, workload_names

DATASETS = ("test", "train")
SEEDS = (0, 1)


def program_digest(name: str, dataset: str, seed: int) -> str:
    """sha256 over the program's instructions and memory image."""
    program = build_workload(name, dataset=dataset, seed=seed)
    payload = {
        "code": [[inst.op.name, inst.dest, list(inst.srcs), inst.imm,
                  inst.target, inst.pc] for inst in program.instructions],
        "memory": sorted(program.memory.snapshot().items()),
    }
    blob = json.dumps(payload, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


PINNED_DIGESTS = {
    "cjpeg.test.0":
        "458c735226bba6febd7dd3711cdd39bf1175a61379584a80be247081c4843763",
    "cjpeg.test.1":
        "336cb2e7c231d921ff2f2e00e95d24b509f47aec58f0906e8b7b71ec36b57f81",
    "cjpeg.train.0":
        "4afc629e08c179f08971c28ad870ceb65430653514350f372ddb1704f6ce4b29",
    "cjpeg.train.1":
        "dbf21fd08e9aa39b7792a88a6eacb58e062ba9bce912372de5cf764025dfdc98",
    "djpeg.test.0":
        "e103dcaf4ee059be4eafe641c0341a497435c8719ad3e0e4641215945c5cd68c",
    "djpeg.test.1":
        "22cd8d260c0b6ea8cbf45b0b56faffaaa14c303235094d3276c69fc05fbc9f78",
    "djpeg.train.0":
        "29066fdd9d640aaf8e442fbcc48ce9afccca57ad86c1132dae9cca1fc1746f4a",
    "djpeg.train.1":
        "4616a74c2d0972046a3b2c85b4d0cf2d31f0b3ad9af380d3c863332c0cd41f7e",
    "epicdec.test.0":
        "4d233f2425cc4e4e947c8d3b2c89adc74ed089e5eb0b7be64231c71d49f2508a",
    "epicdec.test.1":
        "f1a3e2c8adf04dfdcbd3076efd00a9e591c69403259299612c4d714db893e554",
    "epicdec.train.0":
        "c6e6544df12d6dcbf0db271c3a21f40cd19f3c5a02ecc34381521872e42eef0f",
    "epicdec.train.1":
        "eae2deb14089999f3c112f7e6366e3142983b9e0c2365f216f26da50c8ce7a5a",
    "epicenc.test.0":
        "8807de0c34389a0e1f6b63f4ee1ca891bb692d1f16e7a67bcaaeae56c01867d8",
    "epicenc.test.1":
        "0866b8a4910e7b5b3f8f07ec0937d3b2b4e116495360b1a1fc6309474922d064",
    "epicenc.train.0":
        "0fd06711e6b7207c28fc205007119981d6517649e3fcac53fe118c1b6a335fe9",
    "epicenc.train.1":
        "dfbca64693362a71bd5f902251105493423fcab821e8bf5d032b2529d3b3efd9",
    "g721enc.test.0":
        "784f5ac2f993f2e1ee10b4235bb30e0faae766c28c596bb5737517b642ad1c4f",
    "g721enc.test.1":
        "177bce72c0d71373e02381af0301d4b491b215f959afe04dfeeb2148246c3860",
    "g721enc.train.0":
        "78eb7c461e7434541beb1573caf1a79fa089a4e56a14fa8000afe4198a8cacd3",
    "g721enc.train.1":
        "b1a6339dfceaed3caa25bf61a3d5c931ce5188bc167dcf6adce77ebd62b6e7a0",
    "gsmdec.test.0":
        "51c9f6925034561585936e67473290bfd7f34c2bf754ea7aaa6a9c17085f09c1",
    "gsmdec.test.1":
        "c411c64822b007fb5d2c96d0336ed508a6e56a96b777fe1830ef1f5025fcc9eb",
    "gsmdec.train.0":
        "cad01352335ab9d21ec3f2ae28722640e046301c6c7dd911219cc483cf6165a8",
    "gsmdec.train.1":
        "9fbf9183c2cf82b22abcc6a477283466f38f06849705acad880de6ee43a4295e",
    "gsmenc.test.0":
        "1121ef1a5f7eea98d44ff88d39ae3bab8940d7e6da292d38edd406477de36d0d",
    "gsmenc.test.1":
        "b67cd3ec102a24f77cf6a3e672e7f63e6a4cb8b67cee6a26c1c06d8c351d0000",
    "gsmenc.train.0":
        "c07ad5daa5e4bb55b8ffb81c0135f2a637131f83d7d0ba16cc0149a361f332ca",
    "gsmenc.train.1":
        "2881203eae76c1d186b929f319851bbaed60881b798549e7165de683bb187fc6",
    "mesamipmap.test.0":
        "fb5e25ba625c043afb572005711c4cb5f8eb52b9bab168b4c9cc5c6e0f7efe7e",
    "mesamipmap.test.1":
        "a0d8328817ebaffdd23690ed74f4f85d76dda5efab5ea568677d5fc3efa71f1d",
    "mesamipmap.train.0":
        "da5b2de148243cbfdd54064f06d0d54b9458f30dcf62c99f85a4cee0cb6e49f8",
    "mesamipmap.train.1":
        "c9d08365470fe548e0241840edd9e8ad5941592d8c44ae7f513ac0d1866be4de",
    "mesaosdemo.test.0":
        "639381a8ec6f7b833edb0a03a68bb85481b79daa1c03cb9109abf1036d73cb38",
    "mesaosdemo.test.1":
        "9d92bc3ebc1ac929f8753cd61a7b15305b847b41c4d0a7c8004df56db2395ab4",
    "mesaosdemo.train.0":
        "7dfb98ae7bf0e748a77853245985861e131231104d88724546ac054a2a232422",
    "mesaosdemo.train.1":
        "e0a687d3766f650d77cd98338ddf1d441f96d4712de06b54ba1959336ef04c0c",
    "mesatexgen.test.0":
        "9331d303a2d6b3077ecb5f9b46d931615ca2041ffdce1194da55d020d830ba39",
    "mesatexgen.test.1":
        "f9669059bfbaaf769f229fc900f93fdc368637d53b202b19136be4be208a9d31",
    "mesatexgen.train.0":
        "52e939a9a70a70b792c1706a07149ab7b54f633e56dc22e814902bc7fb35f2e7",
    "mesatexgen.train.1":
        "0958de8588119bf74edd76b9d761fe30ffe9435c1968d0e36555763c5f589d9b",
    "mpeg2enc.test.0":
        "b378d086e7938d713f1731e94659d2c20024b3bffbbd48a6668586896ae5a01a",
    "mpeg2enc.test.1":
        "61c61ae29409dbe4fab3415fd871fecb82c2bec1780007d4f6138d1068925fbc",
    "mpeg2enc.train.0":
        "bdc8505901db2d85101d4c30f35b1b6952503a478354830459c78026c87382aa",
    "mpeg2enc.train.1":
        "5167401fc5cbd5d7bb68582353078bf97cf5c0244c06c9d892e87c427da3e383",
    "pgpdec.test.0":
        "7faa453fbf9d78abf644734a319c1a4784cdcaa841944837aeb7ac486b82a442",
    "pgpdec.test.1":
        "9a985e68c1d7bc29e08085d2fb2ebf56f08beb3e95cd01e9ce16d5ba21e30bd6",
    "pgpdec.train.0":
        "8478e9e8f1fba2473ce4d70d693df850b801062412063063c5378d6874f8655a",
    "pgpdec.train.1":
        "a4d479d6506e4ca8e76f67f34f7eda19fcbaf8f7084276958d9e72c005510151",
    "pgpenc.test.0":
        "c43ecbfecd6c0852f65852ea9a847fde50524a93213a91ba71714c13d25aa882",
    "pgpenc.test.1":
        "b0cbcd14ef78a6fb96000cc5b52ee36872fd3f033e9beb2ecdf4ab99e5e4685c",
    "pgpenc.train.0":
        "7b4678c19a22de1a99e19075fa902416641270361a9e280d3ca5df6eff68dab6",
    "pgpenc.train.1":
        "3a14f0a4c0dd8916cc28d34704593d53981b7a853a5d7e608342bfbc4770c555",
    "rasta.test.0":
        "1b4e5b1d5ab937938be262b011bca04e7c2bd83167786c609a866a6d70a3ec94",
    "rasta.test.1":
        "0b0f35e7cc20bb1f719b9508e2861723c8a0fd20b37e3bd75537a441edd3d34a",
    "rasta.train.0":
        "b9a7fc209577ed0bc7a9343bab30664b7296de24894d6ed3b971449126b4cbce",
    "rasta.train.1":
        "52c09cc1f907529823479c07287c739442d706b3e31a6d6b9cad661ddc8a2a4f",
    "rawcaudio.test.0":
        "d2a06cfecf85e1887c62ce6733afc17a6511e5f0c9ce5287008a81b9b79822cc",
    "rawcaudio.test.1":
        "9410a8357a8b423d9eadc535f11d9d457a51304e8a8e9a78589b8a1c9032ab36",
    "rawcaudio.train.0":
        "9407679e176439eb447ac23c4598268781a2d546aaf5fc7fd43d2a82aa788996",
    "rawcaudio.train.1":
        "8cacfb980a4987eab9b8ec302b726317f3fc67f86ccb28f004f9cb1e628bf483",
}


def _cases():
    return [f"{name}.{dataset}.{seed}" for name in workload_names()
            for dataset in DATASETS for seed in SEEDS]


def test_every_case_is_pinned():
    assert sorted(PINNED_DIGESTS) == sorted(_cases())


@pytest.mark.parametrize("case", _cases())
def test_program_matches_digest(case):
    name, dataset, seed = case.split(".")
    assert program_digest(name, dataset, int(seed)) == PINNED_DIGESTS[case]


if __name__ == "__main__":
    for case in _cases():
        name, dataset, seed = case.split(".")
        print(f'    "{case}":\n'
              f'        "{program_digest(name, dataset, int(seed))}",')
