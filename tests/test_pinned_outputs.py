"""Exact-arithmetic CLI outputs pinned byte for byte.

Each command runs in a fresh working directory, ``fock`` with ``--out out``,
and its exit code, its stdout report and the ``basis.tsv`` and ``.mtx`` files
it writes must hash to the values recorded here.  The commands are the
``validate-sweep`` and ``fock-exact`` benchmark commands at seed 7
(``seed:8`` is the first invalid k = 3 table from seed 8), ``validate`` and
``analyze`` on direct products and on the invalid ``single-vertex 2 2 2
cyclic``, ``analyze`` on two many-vertex graphs (``product c12 f2`` has a
double pure cycle with access words of up to 11 letters, ``cycle 12 3`` has
none, so every site is searched to the end), and ``fock`` ops named by
product edge ids, one of which is not an edge (exit 1, nothing written).  ``gelfand`` reports are left out, because their float digits
depend on numpy's multiply loop and on the CPU.  A change that alters one of
these outputs on purpose records the new hash with the reason.
"""

import hashlib

import pytest

from kfock import cli

PINNED = [
    (["validate", "product", "f2", "f3", "--max-grading", "7"], 0,
     "559373ebd20cd190dae893589f94ad225673967c75747c4f5e61c527b9e7716b", None),
    (["validate", "single-vertex", "2", "2", "seed:7", "--max-grading", "8"], 0,
     "28b6de35ecdc7fc5982a3b7f8fb2c061418d753f7ae1ca13d45c825f38f51b06", None),
    (["validate", "cycle", "4", "3", "--max-grading", "8"], 0,
     "15eb97cff2b5eac3f80afa5a979e4414c2972b6be16fac9e61ae5f68e1c84d77", None),
    (["validate", "single-vertex", "2", "2", "1", "seed:7", "--max-grading", "6"], 0,
     "aeb03718cb9206efdd62b0261bc1c47ca1b2c5b9bd3ff856f5f1b22aef4cc828", None),
    (["validate", "single-vertex", "1", "2", "2", "seed:8", "--max-grading", "6"], 2,
     "1f57748967f9c3dadee65ebc937863f11414127166ec1490516227687c060d11", None),
    (["validate", "single-vertex", "2", "2", "2", "cyclic", "--max-grading", "5"], 2,
     "95e15df70aba7b1d4006ddd4f8f978c68556a907f7107d68b886249e27152311", None),
    (["validate", "product", "c2", "c3", "f2"], 0,
     "bb6f293379aa7409c5313ffcf47733b4ca81d65782ee120d47c6e4cb8af45356", None),
    (["validate", "product", "f2", "c2", "f1", "c1"], 0,
     "45548fe30e67d75938593e1b85dc2b24f2a68ecc09e0bf817fd140f878f471bc", None),
    (["analyze", "chain", "5"], 0,
     "1bf258e0a7cfef5e6684ac55cacb85de53b542ae07c5ae8592fd05f22f091559", None),
    (["analyze", "product", "f3", "f2", "c2"], 0,
     "74d87b83ba9273171ffa3fb61aef11c1b1b22db709c918f6b898d4a7001db4c2", None),
    (["analyze", "product", "f2", "c2", "f1"], 0,
     "d8f432b173ea1726f28f5d22e275e538cc258c0bf815a532545f0c2f453332d3", None),
    (["analyze", "product", "c2", "c3", "f2"], 0,
     "71eb0a3bf736918ee7f9385a9ec4b3339dd414ebc7bd516025dc80a4542a8aa2", None),
    (["analyze", "cycle", "4", "3"], 0,
     "4dd73f8cc4fef7f5ed6611ed3931c2dc31dd8c691572d866f0f263555a6219ec", None),
    (["analyze", "product", "c12", "f2"], 0,
     "b1d189899883e5de8dbaacbfd031ed87f7e1a8169b55b0aa8aab0b195e832c02", None),
    (["analyze", "cycle", "12", "3"], 0,
     "d7fe867e5861c975f68cf3d8bff452f32004d446a07f3c5911526454c9db4be7", None),
    (["analyze", "single-vertex", "2", "2", "2", "cyclic"], 2,
     "263d58da3c12751c6ae301cdc84f50d25d34f5242ee3056ead7884abdf61be69", None),
    (["fock", "product", "f2", "f3", "--trunc", "5", "--op", "e1.1(v)"], 0,
     "53f315aff6f67e4e6cb529b3a933da5a2da33a03fa3e295312bcb35e436f4164",
     "c3fc958730bbe7eb990927c0980ed34008276574674a6b5a58c5629d35ebe708"),
    (["fock", "single-vertex", "2", "2", "seed:7", "--trunc", "6",
      "--op", "e1_1", "--op", "e2_1 e1_2"], 0,
     "4498b53703376cfa4a0ab2276825b4900fd75d2277aa2dfa3eb0fd701cf80e5f",
     "40995417848603d63bf0c51daef0bfb061a9f55c5a08d3e328a0fb8e2ec0d0c4"),
    (["fock", "cycle", "3", "2", "--trunc", "8", "--op", "e1"], 0,
     "91c7f755f1cdc61cc590992d43d729f51763c103488dab67086e9546919571e1",
     "f33c81c7fefb0ea2799a3e7412d2a4098c21b790486fff376d401395c8e0346f"),
    (["fock", "product", "f2", "c2", "f1", "--trunc", "4"], 0,
     "00820321fbcd12c7eb80677cdbab7aae4c357bf48c9b5c3559efb022e1df85ec",
     "b4bb1cae3a8c894623cd94e7a536ed539ceaf745ff00b524604de943dcdb55eb"),
    (["fock", "product", "c2", "f2", "c3", "--trunc", "4", "--op", "e1.1(x1,v,x1)"], 1,
     "18c2a538526bc9a4ed63231e1b56ff413c9c0c10ed349e6c700f14bb96213fa0", None),
    (["fock", "product", "c2", "f2", "c3", "--trunc", "4",
      "--op", "e1.1(v,x1)", "--op", "e1.3(x2,v) e1.1(v,x1)"], 0,
     "87264eab61127c724fb1932f23c25abaf656a0247a1d48347ec48b71a0299f2c",
     "94a08f6c5a2593abbb6951bf5a17a09d2c68a8d38573d47aae0e0c4a7dcf77d3"),
]


# the .mtx files each fock command writes, as first written by scipy.io.mmwrite
EXPORTS = {
    "fock product f2 f3 --trunc 5 --op e1.1(v)": {
        "e1.1(v).mtx": "a776974cdd5dce3b284b7be180d2c52975b9070396c97f3016924cf0b162633a"},
    "fock single-vertex 2 2 seed:7 --trunc 6 --op e1_1 --op e2_1 e1_2": {
        "e1_1.mtx": "4dd2109caf81dc2cbe9e2502d38fa1d8617856768c9b7ba33087b278401cce45",
        "e2_1_e1_2.mtx": "fd8eaf755007dd99d328c0b648cd2b7d09ac5dcf2477e4ba30e35a4b245d3ed7"},
    "fock cycle 3 2 --trunc 8 --op e1": {
        "e1.mtx": "9af4b85a13d9fea28456e980fe541ac95cfd3c5ff552fc56a9a105a77ef69587"},
    "fock product c2 f2 c3 --trunc 4 --op e1.1(v,x1) --op e1.3(x2,v) e1.1(v,x1)": {
        "e1.1(v,x1).mtx": "3f25108a8871b67d79891aaf3437fcd2e40417e95325b5e19adf9d2557b5a1b8",
        "e1.3(x2,v)_e1.1(v,x1).mtx":
            "cb27dc80c5c16047d46aadf0804f2b13ebd8642dc4c2dc5a3fa19e6c715852ec"},
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("argv,code,report,basis", PINNED,
                         ids=[" ".join(argv) for argv, *_ in PINNED])
def test_cli_output_is_pinned(tmp_path, monkeypatch, capsys, argv, code, report, basis):
    monkeypatch.chdir(tmp_path)
    exports = EXPORTS.get(" ".join(argv), {})
    if argv[0] == "fock":
        argv = [*argv, "--out", "out"]
    assert cli.main(argv) == code
    assert _sha256(capsys.readouterr().out.encode()) == report
    if basis is not None:
        assert _sha256((tmp_path / "out" / "basis.tsv").read_bytes()) == basis
        written = {p.name: _sha256(p.read_bytes()) for p in (tmp_path / "out").glob("*.mtx")}
        assert written == exports
    else:  # no manifest and no export, even from a fock command that was refused
        assert not (tmp_path / "out").exists()
