"""Golden sha256 digests of CLI reports.

Rewrites of a hot path must leave every report byte-identical.  These
digests were taken from JSON reports of the toggle-by-toggle antichain
rowmotion; any change to a report's bytes (an order, a retry count, a
pass count, a key) fails here.
"""

import hashlib

import pytest

from rowmotion.cli import main

REALMS = {"rational": "birational", "tropical": "tropical", "matrix:2": "nc", "matrix:3": "nc"}

ORBIT_DIGESTS = {
    ("chain 3x3", "rational", "bar"): "a2273e2ed80ed0f0156a6df662251bd3920053430b7858989310a6b02bf080d2",
    ("chain 3x3", "rational", "bor"): "a360eb0640b01555f3b34f7fa6049fa1f984dfcd23a11f7b35b0bb453ce942e4",
    ("chain 3x3", "tropical", "bar"): "db33b6fb4018b8e4eff636019e8af6e3892b70a41b469a607dd50ed3e4c984b1",
    ("chain 3x3", "tropical", "bor"): "39596160a854fbdfc9064026907901e85ba81c0e88a18caf4f319f60d600a0dd",
    ("chain 3x3", "matrix:2", "bar"): "6fa318252f7ad6529b92eeb591e58d45d31aa1c14536fdf0c4f280bece1b362b",
    ("chain 3x3", "matrix:2", "bor"): "c3cca280609b87dc1e6b8f364e36e43e1a7d10cbbf448ce1d3d9523b14942261",
    ("chain 3x3", "matrix:3", "bar"): "d8f980ba69d0e9cc99417f2c48c8fc5b077c02a49ed6706cac96ff9fe8ed5715",
    ("chain 3x3", "matrix:3", "bor"): "12ce210af8e512694b7ca82f7d1a2ccb524499cb969cb7949dc29cd1ff5ed6c5",
    ("rootA 4", "rational", "bar"): "69a8d774ca3e0095265015e0b6ef4f9820dae76388a51a700a22619e68114c86",
    ("rootA 4", "rational", "bor"): "641ee5e412467fe24a1a404b54f75a7016b105379c988a9cd31d7fa99b020868",
    ("rootA 4", "tropical", "bar"): "4edda843ded6c683d1f68a70222d0d6ac6824831701312e49e49939a65fa0f49",
    ("rootA 4", "tropical", "bor"): "e1509ce0d0369130edc661cfefc2a9b1da736649f577708bdda177a091fb4b46",
    ("rootA 4", "matrix:2", "bar"): "0dd08d7bf1a6c4e40be4a7c1449fc832afe774f1ab57dd27be00f29989404046",
    ("rootA 4", "matrix:2", "bor"): "858f0c8ac9af77f51dd5117b00feda414de35ebc7ffe80b1b1731840d2c114de",
    ("rootA 4", "matrix:3", "bar"): "674bda6e95c5f37cc37f9777dcc6ba9e4092c6194294c3d627e286f18d42ec7b",
    ("rootA 4", "matrix:3", "bor"): "f7b9263575b78b670ec0f100792f0426aad6bdad305cf433fb3f0b94f5a29420",
}

VERIFY_DIGESTS = {
    "bar-transfer": "467562b35f008af2d7b4a5d33ddf5ad616394b28db3ccc70bb2e115527915e18",
    "nar-transfer": "47af6a852100a19398c8807e34ef51c4ec4fd849a437a33446ba198020d2c41c",
    "extension-independence": "c7db469547962f031bbce28a468147e06302743fbd18caebb79c1729687b7ee2",
    "rescale-bar": "d9b61d906af12cee8f0b7a8d75e1150a1ccf7a7ea8e4a4e3e4d64096f228335b",
    "gyration": "40eb625e870cd7a122d6c499ff211894c42bca6f5676f3774d070f9f12d2c4d0",
    # the starred-toggle checks, taken before the star words became one map
    "t-star": "f66a3a47f6bfd60d9a7c01d875fa85d870fc4f5ae38a11ae8800112912aa6ee4",
    "tau-star": "8240e3a8d56e99d821101359e8cfecda963b54b41069387c0e28206736ef6b1d",
    "t-star-nc": "1dcacbcea1a334bf9b20e9322935f16aea1a0853d44631eaa996e8535b258f8c",
    "tau-star-nc": "cbf3d67009d2a7a0187bcdd95b52fde4c50eef3b7cae7cd29868863dcb5c7282",
}
# These and the verify digests below were pinned while nar-transfer, t-star-nc and
# tau-star-nc were registry entries of their own; pre_merge_verify_digest maps
# today's reports back to those ids.

PL_DIGEST = "7410ba9c85b9565b29583e561da7106505693e46a376461d7e6b271a89bac20a"
# the order-map PL orbit, taken before the PL maps shared one applier
PL_ORDER_DIGEST = "a90d48a2a16e1f19e774940a1a6bbca5e1ad0df83b4e1c4237e5385aa23654a1"

# Combinatorial reports, taken while filters still had their own toggle body.
COMB_ORBIT_DIGESTS = {
    "rowA": "cd295fa70ab7b6271de1707d610bd713d96a99b5ad713f648c7eb40e8287ca5c",
    "rowJ": "6a90e167f39ce0812bd36e10ab74a8d0d8843f5b53cd9ba984880885912fd919",
    "rowF": "cddbf6fad881a68d1c9fe36fa5c0b5de7eb80b7a0f156a3fcc0d703fd85b9c27",
}

# The largest grid that state-space enumeration admits (2^20 masks), taken while
# every mask was still a frozenset run through a set validator.
COMB_LARGEST_DIGEST = "af72b0aef95fbec9ca32dbf1d9fe5a45538da2019d8a89a8038a88bf1390be44"

HOMOMESY_DIGESTS = {
    "rowA": "a90a7d039371de561a34fde32775bdef28367a13228cc39bcf1f6dbfc0c26d0a",
    "rowJ": "1bd950158565685e7e72f0c343307c3ab6ade73aa89e17e658b29db5e2a87c78",
    "rowF": "75156492a9dccb3ef87d91bcc7f97ffdfffcd00a5cf35d393290e4d1aadac58d",
}

# Scan and poset reports, taken while the harness ran its own largest-first sweep
# and Poset cached its maximal chains.
SCAN_DIGESTS = {
    ("2x3", "rational"): "7af8552344f80f6b566f13da418d05a2ccbdb22d6a8ac5701ace774134e05ebf",
    ("2x2", "matrix:2"): "b4b7b4088af9ec9219ceeac94e6ab1f941717ef27d8a0cc610a3b344f72a8082",
    ("3x4", "matrix:2"): "740fde6e1b27cb2b888fa3f64679c3c8228e4cd941affea0baa735911c5454ad",
}

POSET_DIGEST = "890d068560d9147894d3e5bafc25dfd796022a699e64a987ff01df1272e3fe64"

# The whole registry on matrix:3, taken while each matrix was still built by five
# object.__setattr__ calls.
VERIFY_ALL_MATRIX3_DIGEST = "88b2f034b0d9375f2bbd7a59b2cdb7495821e2cfd513c6ce1bb019eb8457084d"

# `verify --all --points 20` with --backend, and the default plan at the MAX_SAMPLES
# cap, whose one degenerate matrix:2 point is redrawn once in each of its rows.
VERIFY_ALL_BACKEND_DIGESTS = {
    "rational": "e83e3528e333329271b143e402af8ab8608422c2bd033b94af75c17ebd656fbd",
    "tropical": "36d8c10b762a043f394ef1adaa6cd874301d64580efd2f5c199022a659c3b595",
    "matrix:2": "1f8bbcda592dc30506ab3abc40a524ac7157e0f8682231aa5332b377ccfb60da",
}
VERIFY_ALL_CAP_DIGEST = "726ac7b6fbf77200b3ad755ed02f34ef87c9b504ab52e38cfe538e8a72b8b2c1"


def unseeded_report_digest(tmp_path, *argv):
    out = tmp_path / "report.json"
    assert main([*argv, "--format", "json", "--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


def report_digest(tmp_path, *argv):
    return unseeded_report_digest(tmp_path, *argv, "--seed", "0")


@pytest.mark.parametrize("poset,backend,map_id", sorted(ORBIT_DIGESTS))
def test_orbit_report_digest(tmp_path, poset, backend, map_id):
    digest = report_digest(tmp_path, "orbit", "--realm", REALMS[backend], "--backend", backend,
                           "--map", map_id, "--poset", poset)
    assert digest == ORBIT_DIGESTS[poset, backend, map_id]


def test_pl_antichain_orbit_report_digest(tmp_path):
    digest = report_digest(tmp_path, "orbit", "--realm", "pl", "--map", "antichain",
                           "--poset", "chain 3x3")
    assert digest == PL_DIGEST


def test_pl_order_orbit_report_digest(tmp_path):
    digest = report_digest(tmp_path, "orbit", "--realm", "pl", "--map", "order",
                           "--poset", "chain 3x3")
    assert digest == PL_ORDER_DIGEST


@pytest.mark.parametrize("theorem", sorted(VERIFY_DIGESTS))
def test_verify_report_digest(pre_merge_verify_digest, theorem):
    digest = pre_merge_verify_digest("--points", "5", theorem=theorem)
    assert digest == VERIFY_DIGESTS[theorem]


def test_verify_all_matrix3_report_digest(pre_merge_verify_digest):
    digest = pre_merge_verify_digest("--all", "--points", "5", "--backend", "matrix:3",
                                     "--poset", "chain 2x3")
    assert digest == VERIFY_ALL_MATRIX3_DIGEST


@pytest.mark.parametrize("backend", sorted(VERIFY_ALL_BACKEND_DIGESTS))
def test_verify_all_backend_report_digest(pre_merge_verify_digest, backend):
    digest = pre_merge_verify_digest("--all", "--points", "20", "--backend", backend)
    assert digest == VERIFY_ALL_BACKEND_DIGESTS[backend]


def test_verify_all_report_digest_at_the_sample_cap(pre_merge_verify_digest):
    assert pre_merge_verify_digest("--all", "--points", "1000") == VERIFY_ALL_CAP_DIGEST


# Combinatorial orbits reject --seed and homomesy has no such flag: neither draws one.
@pytest.mark.parametrize("map_id", sorted(COMB_ORBIT_DIGESTS))
def test_comb_orbit_report_digest(tmp_path, map_id):
    digest = unseeded_report_digest(tmp_path, "orbit", "--realm", "comb", "--poset", "chain 3x3",
                                    "--map", map_id)
    assert digest == COMB_ORBIT_DIGESTS[map_id]


def test_comb_orbit_report_digest_on_the_largest_admitted_grid(tmp_path):
    digest = unseeded_report_digest(tmp_path, "orbit", "--realm", "comb", "--poset", "chain 4x5")
    assert digest == COMB_LARGEST_DIGEST


@pytest.mark.parametrize("map_id", sorted(HOMOMESY_DIGESTS))
def test_homomesy_report_digest(tmp_path, map_id):
    digest = unseeded_report_digest(tmp_path, "homomesy", "--poset", "rootA 3", "--map", map_id)
    assert digest == HOMOMESY_DIGESTS[map_id]


@pytest.mark.parametrize("max_ab,backend", sorted(SCAN_DIGESTS))
def test_scan_report_digest(tmp_path, max_ab, backend):
    digest = report_digest(tmp_path, "scan", "--max", max_ab, "--backend", backend)
    assert digest == SCAN_DIGESTS[max_ab, backend]


def test_poset_report_digest(tmp_path):
    digest = unseeded_report_digest(tmp_path, "poset", "--poset", "rootA 3")
    assert digest == POSET_DIGEST


# Combinatorial tables in the other two formats, on a poset that is not a grid.
COMB_TABLE_DIGESTS = {
    ("orbit", "rowF", "csv"): "1d1d750d17c5d7d13b2ea1a43da1616d8e815bd4e61b00249560af42cfbdc8a1",
    ("orbit", "rowF", "text"): "961e8b199b22927c0c8884912a4ab965946d8abccc23826cf324f4dbeb3a1cb4",
    ("homomesy", "rowJ", "csv"): "ba5a24b7058e5a6bfbb119d0ccb2089928672e923b6618925186d07b2d00e83c",
    ("homomesy", "rowJ", "text"): "37d01621f5ec9a605f0f074e6338aa8ee4fe8aa7fa5c99727fe56e7785e9ad14",
}


@pytest.mark.parametrize("command,map_id,fmt", sorted(COMB_TABLE_DIGESTS))
def test_comb_table_digest(tmp_path, command, map_id, fmt):
    out = tmp_path / f"report.{fmt}"
    assert main([command, "--poset", "random 8 3", "--map", map_id, "--format", fmt,
                 "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == COMB_TABLE_DIGESTS[command, map_id, fmt]
