"""Golden command-line output: SHA-256 digests of stdout, and exit codes.

The digests pin the report format byte for byte: every verification suite
at N = 2 and N = 3, and the theta renderings of each method.  A change that
alters any of these outputs has to update the digest here on purpose.
"""

import hashlib

import pytest

from qshapo.cli import main

# (arguments, exit code, SHA-256 of stdout)
GOLDEN = [
    ("verify --suite hwv --n 2", 0,
     "66483726c596e775d75f30997ea8aab4c37eca3823f5462dd5bf4b2205037a67"),
    ("verify --suite negative --n 2", 0,
     "df4e5ec38612a2e32daed73354b1d2117b27955025d322ff78310f70932287a6"),
    ("verify --suite section2 --n 2", 0,
     "21aa087e664c2dc4a3f66ed26670d105075967b486e9c8ed93beebddb52c6881"),
    ("verify --suite section3 --n 2", 0,
     "0084e9a1e5bc905196514eb6a20af84f64056ee7233ae4231117747e8acd8548"),
    ("verify --suite calculus --n 2", 0,
     "8b552f6a0819d4538a04af0d51e169c29bcefb0b8c4fa3c759de80f94dbc4309"),
    ("verify --suite section44 --n 2", 0,
     "738125de9c0bafde7bb9c9c59503b0343cd571264017da5af18d22b4743af71a"),
    ("verify --suite powers --n 2", 0,
     "d0e5f11bd2ca3e438dcc03c40b462d6e07ffe0df108906857de2c20699528c49"),
    ("verify --suite pbw --n 2", 0,
     "ad25a1b3989c7c3f523effcf3e29ca5c6a09f6e45ab308cb63bd004a56f3d9d8"),
    ("verify --suite hwv --n 3", 0,
     "fba4c9d15001f99fe9029a9161aaf79daabfdea326f229b19314a8b4f6ad36d2"),
    ("verify --suite negative --n 3", 0,
     "85f6f3ccfe7bcbb2e126d1b4d0076ba7171b83c9c6756fab696cca3c9d0b52bf"),
    ("verify --suite section2 --n 3", 0,
     "f7a6805f43a25f918a0368faf39906ba2c64d890ea990ffb4da453790bfaba61"),
    ("verify --suite section3 --n 3", 0,
     "b9afc4c072c6c2fa6c2c475a68c418a6a483cdb6ee6ebd8f50471f481e9b2e83"),
    ("verify --suite calculus --n 3", 0,
     "6ea85dcb86b9346bbdcabe6617322e09e9364d166c6f4c98e0b6cbf59280b410"),
    ("verify --suite section44 --n 3", 0,
     "7e60fe2f4c7f0137b0d130a5716385e1bfb98c885fe6ed76d84450340f246171"),
    ("verify --suite powers --n 3", 0,
     "5a80225c4385e120248c04376988f1611fe17952d5643f52a50f77e5816d2c97"),
    ("verify --suite pbw --n 3", 0,
     "5282e382ad7ca553c630f8f54a15595d3602dec1f3d2af7273751f058c05a83b"),
    ("theta --n 2 --method sum --format text", 0,
     "48db70499c43b31e9a11519b807567508462c7b6bc285e8888a344224abbab56"),
    ("theta --n 2 --method sum --format json", 0,
     "8b0ea8c8701c131ca6a5d7f7d16abe155c9f5ab0974f322933165b7bf09463b3"),
    ("theta --n 2 --method sum --format latex", 0,
     "d8697434c720ccc02c73af0c8f39b1b016c1318af77abcfa8110b9fe1a2ec3b8"),
    ("theta --n 3 --method sum --format text", 0,
     "800174f489b763e02f36acefdf5f098d3adb504a5a2895eba014347156e57ff8"),
    ("theta --n 3 --method sum --format json", 0,
     "ab2dce9428d248dfc38ac9e23186198a26c9f5302f5295456d2b3bac76fe18a6"),
    ("theta --n 3 --method sum --format latex", 0,
     "6973757aa0a560963e9a90ab5dc5353ca22896dbf35158d095c2b45cafd82c42"),
    ("theta --n 4 --method sum --format text", 0,
     "19be002600bc78c89bfd457377298a3c5325c2237910b15b8c0ab9036aa59450"),
    ("theta --n 4 --method sum --format json", 0,
     "d0b769e3a4b80bc4bc1eda4e1dc55dbe2b2d86143bd5f01644f3f0de1745ae4c"),
    ("theta --n 4 --method sum --format latex", 0,
     "e1c16ada3fe3b42598bf3856d72214e7fcb845d34ee7b5eca59772eb9ea1726a"),
    ("theta --n 3 --method det --format json", 0,
     "c744a187d0f8e400b15cb1173f75bf91f38ca8ca5c5db8a8ccb444bd32027b08"),
    ("theta --n 3 --method det", 0,
     "67a1cdf3688e33ab9de5349cc52b168ad04bb6c0f73bcb121be3eb060d3a79d8"),
    ("theta --n 2 --method det --lambda 0,-1 --format latex", 0,
     "ab835a42b6aedddf5d4d5bb972f7e98a19a1c5d00dd7e8631890a555eace1430"),
    ("theta --n 4 --m 2 --method power --lambda 0,0,0,-2", 0,
     "5de2a50bbd78d295384a2b4f24b978e17f92bdd21fd4850d41a325c0b151c201"),
    ("theta --n 3 --m 2 --method inductive --lambda 1,0,-2", 2,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    # successful rank inductions: each one divides on the right by F^d
    ("theta --n 3 --m 3 --method inductive --lambda 4,1,-5", 0,
     "ca1815251b2df1c89284a0aa12814aa18847aadfe8e0174d919e33c7b2edfa93"),
    ("theta --n 3 --m 3 --method inductive --lambda 4,1,-5 --format json", 0,
     "651fbd8b5d02eb0c736910cf251f3e36fc691bc80ed83458f93332741b1eba56"),
    ("theta --n 4 --m 2 --method inductive --lambda 3,1,0,-6", 0,
     "0f66ec89acdfd297cae6f9ad79019c4bf8df44b8da910fbc552e75e45274520b"),
]


@pytest.mark.parametrize("argv, code, digest", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_cli_stdout_matches_golden_digest(argv, code, digest, capsys):
    got = main(argv.split())
    out = capsys.readouterr().out
    assert got == code
    assert hashlib.sha256(out.encode()).hexdigest() == digest
