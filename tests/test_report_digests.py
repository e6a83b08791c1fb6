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

# `verify --points 5 --theorem ID`, on its default backends and, for the identities
# that span both realms, under --backend matrix:2, which runs their noncommutative rows.
VERIFY_DIGESTS = {
    ("bar-transfer",): "4cc254e5b782e472080370a1053e6bee18928856208d0601e7e1150fbc2ec6ee",
    ("bar-transfer", "--backend", "matrix:2"):
        "ac2e346ca726c3b33e0ef602c2abaac6b52a3ce61ad41d23e091a02511441e3a",
    ("extension-independence",): "c7db469547962f031bbce28a468147e06302743fbd18caebb79c1729687b7ee2",
    ("rescale-bar",): "d9b61d906af12cee8f0b7a8d75e1150a1ccf7a7ea8e4a4e3e4d64096f228335b",
    ("gyration",): "40eb625e870cd7a122d6c499ff211894c42bca6f5676f3774d070f9f12d2c4d0",
    ("t-star",): "857de7464a295e9b567048b71b775c639a1fe3e80676383bd5f5fd0a6c227010",
    ("t-star", "--backend", "matrix:2"):
        "be757395cc32929def4e86ee73756198cb578269a292c96a466ef13e5356cd99",
    ("tau-star",): "a41afde6013c9856af4dd766c2c4314557cfb8716dcac02a6d7ec28a952e1ef6",
    ("tau-star", "--backend", "matrix:2"):
        "117b40bfcb053a02545fafa87d573822a9dedb030df6a95a6466cddcc4f539c7",
}

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

# The whole registry on matrix:3.
VERIFY_ALL_MATRIX3_DIGEST = "f41cad8583a9785385e08605ba1d9c1fb9af350d9a422b70c62bc378a05ce321"

# `verify --all --points 20` with --backend, and the default plan at the MAX_SAMPLES
# cap, whose one degenerate matrix:2 point is redrawn once in each of its rows.  CI
# pins these four, the matrix:3 plan above and the default plan at --points 20
# (tests/test_harness.py) against the installed package.
VERIFY_ALL_BACKEND_DIGESTS = {
    "rational": "a6a1c895af3d61bc20d5a36e389721e0ed2172144c0cbc8ab638facf10daea4e",
    "tropical": "d6caf231817e24d805e974322d1ba862a4fac912c83d25d00652cb6d487ef6d4",
    "matrix:2": "d420591f83adcf20376296855ebe53f9f6c848b7057f87d67cd120e496118edc",
}
VERIFY_ALL_CAP_DIGEST = "4d3680c08bfaf48dcb0fd347eff5778a0461967ef23fe7e232084effa4b314c7"

# The three bridge checks on matrix:2, on an ungraded random poset and a 3x3 grid,
# whose down-sets run deeper than those of the default six-element posets.  CI pins
# it too.
VERIFY_BRIDGE_ARGV = ("--theorem", "t-star", "--theorem", "tau-star", "--theorem", "gyration",
                      "--poset", "random 9 4", "--poset", "chain 3x3", "--backend", "matrix:2",
                      "--points", "20")
VERIFY_BRIDGE_DIGEST = "66f25112984a5c4d84731b42e077fa6d6d7b000c8adf47899bdefb1b345671d0"

# The three bridge checks on the default posets over a degree-3 backend, where
# no polynomial identity of degree below 6 holds, so a replayed program that
# differs from the direct checks cannot hide behind s4.  CI pins it too.
VERIFY_BRIDGE_MATRIX3_ARGV = ("--theorem", "t-star", "--theorem", "tau-star",
                              "--theorem", "gyration", "--poset", "rootA 3", "--poset", "chain 2x3",
                              "--backend", "matrix:3", "--points", "20")
VERIFY_BRIDGE_MATRIX3_DIGEST = "d2a71a175442b2b201b786de63dd87f87fc394385f42d698a88e9852a405f4aa"

# The six checks beside the bridge that draw nothing, recorded once per row and
# replayed: on the two pairs of posets and matrix backends above.  CI pins both.
VERIFY_RECORDED_THEOREMS = ("--theorem", "involution", "--theorem", "commutation",
                            "--theorem", "extension-independence", "--theorem", "meteor-gorge",
                            "--theorem", "bar-transfer", "--theorem", "nor-transfer",
                            "--points", "20")
VERIFY_RECORDED_DIGESTS = {
    ("random 9 4", "chain 3x3", "matrix:2"):
        "114bc412d9e3967a48e51f0ccc8663e08ad0517a155a0560ab8bd897e61492a2",
    ("rootA 3", "chain 2x3", "matrix:3"):
        "2a023a7a8fdb9f889a9a5ffe49ddfaf68657852fe709fa9adc26ee7f3a699ba7",
}

# The three checks that draw central scalars, recorded with the draws as replay
# inputs: on a type-A root poset and a grid deeper than the defaults over matrix:2,
# and on the default posets over matrix:3.  CI pins both.
VERIFY_DRAWING_THEOREMS = ("--theorem", "reciprocity", "--theorem", "rescale-rank",
                           "--theorem", "rescale-bar", "--points", "20")
VERIFY_DRAWING_DIGESTS = {
    ("rootA 4", "chain 3x3", "matrix:2"):
        "a91b5a348f204732b250e788d1e99be8993e2d782f66a71a0dc91e482d8e36df",
    ("rootA 3", "chain 2x3", "matrix:3"):
        "9067dde220bf933a72cab654e36747172aa757d989772d395934ebe1e29678fd",
}

# The checks that apply rank atoms, on a poset whose rank 1, {1, 2}, the default
# extension 0, 2, 3, 1 visits out of index order, and on chain 2x3, over matrix:2.
# Taken while rank atoms ran as one sweep along an extension by rank, then index.
# The poset file is named by a relative path, which the report prints.  CI pins it too.
RANK_ORDER_POSET = "4\n0<2\n3<1\n"
VERIFY_RANK_ORDER_ARGV = ("--theorem", "gyration", "--theorem", "rescale-rank",
                          "--theorem", "rescale-bar", "--theorem", "t-star", "--theorem", "tau-star",
                          "--poset", "rank-order.poset", "--poset", "chain 2x3",
                          "--backend", "matrix:2", "--points", "20")
VERIFY_RANK_ORDER_DIGEST = "316757ecbd42d4fd21eefb125d114da2b249527ccc747a9c32c310440cff7ad4"


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


@pytest.mark.parametrize("argv", sorted(VERIFY_DIGESTS), ids=" ".join)
def test_verify_report_digest(tmp_path, argv):
    digest = report_digest(tmp_path, "verify", "--points", "5", "--theorem", *argv)
    assert digest == VERIFY_DIGESTS[argv]


def test_verify_all_matrix3_report_digest(tmp_path):
    digest = report_digest(tmp_path, "verify", "--all", "--points", "5", "--backend", "matrix:3",
                           "--poset", "chain 2x3")
    assert digest == VERIFY_ALL_MATRIX3_DIGEST


@pytest.mark.parametrize("backend", sorted(VERIFY_ALL_BACKEND_DIGESTS))
def test_verify_all_backend_report_digest(tmp_path, backend):
    digest = report_digest(tmp_path, "verify", "--all", "--points", "20", "--backend", backend)
    assert digest == VERIFY_ALL_BACKEND_DIGESTS[backend]


def test_verify_all_report_digest_at_the_sample_cap(tmp_path):
    digest = report_digest(tmp_path, "verify", "--all", "--points", "1000")
    assert digest == VERIFY_ALL_CAP_DIGEST


def test_verify_bridge_checks_report_digest(tmp_path):
    assert report_digest(tmp_path, "verify", *VERIFY_BRIDGE_ARGV) == VERIFY_BRIDGE_DIGEST


def test_verify_bridge_checks_matrix3_report_digest(tmp_path):
    assert report_digest(tmp_path, "verify", *VERIFY_BRIDGE_MATRIX3_ARGV) == \
        VERIFY_BRIDGE_MATRIX3_DIGEST


@pytest.mark.parametrize("one,two,backend", sorted(VERIFY_RECORDED_DIGESTS))
def test_verify_recorded_checks_report_digest(tmp_path, one, two, backend):
    digest = report_digest(tmp_path, "verify", *VERIFY_RECORDED_THEOREMS, "--poset", one,
                           "--poset", two, "--backend", backend)
    assert digest == VERIFY_RECORDED_DIGESTS[one, two, backend]


@pytest.mark.parametrize("one,two,backend", sorted(VERIFY_DRAWING_DIGESTS))
def test_verify_drawing_checks_report_digest(tmp_path, one, two, backend):
    digest = report_digest(tmp_path, "verify", *VERIFY_DRAWING_THEOREMS, "--poset", one,
                           "--poset", two, "--backend", backend)
    assert digest == VERIFY_DRAWING_DIGESTS[one, two, backend]


def test_verify_rank_order_report_digest(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "rank-order.poset").write_text(RANK_ORDER_POSET, encoding="utf-8")
    assert unseeded_report_digest(tmp_path, "verify", *VERIFY_RANK_ORDER_ARGV) == \
        VERIFY_RANK_ORDER_DIGEST


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


# Combinatorial reports on two poset files whose index order is not a linear extension
# (3 < 1 in the first; 10 of the 13 covers of the second run from a higher index to a
# lower one), taken while every state was still a frozenset.  CI pins them too.
SHUFFLED_POSET = "10\n0<1\n1<2\n3<1\n4<1\n5<2\n6<9\n7<5\n8<0\n8<3\n8<4\n8<7\n9<4\n9<5\n"
COMB_FILE_POSETS = {"rank-order.poset": RANK_ORDER_POSET, "shuffled.poset": SHUFFLED_POSET}
COMB_FILE_DIGESTS = {
    ("orbit", "rank-order.poset", "rowA"): "da8b8a37a0ee5bde645cb28076828abaa34d3db52814c76ae1dc47924f047938",
    ("orbit", "rank-order.poset", "rowJ"): "bbec985ecebf93a366cbadd13ae48fa36c2894429b8869f3fbdb45dfecb3c68e",
    ("orbit", "rank-order.poset", "rowF"): "2d153d731bb0ae48097da3c1fb01c5587053ee6990cf8a5907edc6b2b97a010d",
    ("orbit", "shuffled.poset", "rowA"): "70629696ab969fb4ff2734e5e676c04d590d5fb691c6597bc0b814e4588d9ba5",
    ("orbit", "shuffled.poset", "rowJ"): "533adec9597a5245de21454894133c290694f880837e7948e01bcd4df87c9b99",
    ("orbit", "shuffled.poset", "rowF"): "8d635ffd63e4f7532ace179a0350d957454e77b3190d2650bba4958930ff603b",
    ("homomesy", "rank-order.poset", "rowA"): "7eedd099537d7508d477d06bae9048d844be95f169d52229320f6956523a086e",
    ("homomesy", "rank-order.poset", "rowJ"): "22f897ba6cdbdd158c2283cc8c7d1b91cc9c1dd2a598150db5b34d75c40719a4",
    ("homomesy", "rank-order.poset", "rowF"): "1b89eb0355494a43e5667c931c9cb52e3484dec2774a666b3586501d815a7f16",
    ("homomesy", "shuffled.poset", "rowA"): "d8bbd55b40af6a0b25015a58dc3290420db28ede79ef4eda9fc1d9c2ec8e9bd3",
    ("homomesy", "shuffled.poset", "rowJ"): "837c98afe543459488eef1dcdd22f84cc2155f283216690689927c346dca94b8",
    ("homomesy", "shuffled.poset", "rowF"): "9be09a69fce5ff3ee8c0ebf7028ef1d72d29d44b71612a4a9ab9b18fa467e670",
}


@pytest.mark.parametrize("command,poset_file,map_id", sorted(COMB_FILE_DIGESTS))
def test_comb_report_digest_on_a_poset_file_out_of_index_order(tmp_path, monkeypatch, command,
                                                               poset_file, map_id):
    monkeypatch.chdir(tmp_path)
    (tmp_path / poset_file).write_text(COMB_FILE_POSETS[poset_file], encoding="utf-8")
    argv = ["orbit", "--realm", "comb"] if command == "orbit" else ["homomesy"]
    digest = unseeded_report_digest(tmp_path, *argv, "--poset", poset_file, "--map", map_id)
    assert digest == COMB_FILE_DIGESTS[command, poset_file, map_id]


# Single antichain toggles and elggots (involution's noncommutative inverse pairs,
# meteor-gorge) and antichain rowmotion along two extensions, on the shuffled poset
# file and on a poset with four upper covers at one element.  Taken while the
# antichain maps still ran as sweeps planned once per poset.  CI pins them too.
VERIFY_SHUFFLED_ARGV = ("--theorem", "involution", "--theorem", "meteor-gorge",
                        "--theorem", "extension-independence", "--theorem", "bar-transfer",
                        "--poset", "shuffled.poset", "--poset", "random 12 3", "--points", "20")
VERIFY_SHUFFLED_DIGESTS = {
    "matrix:2": "a70ac9857218a89c754775dcf18cdee91a93a83d646d94f66cdcf54487a9dbb5",
    "rational": "3502ac0278cbbfd89bec37a376462d4230db26d7fe5946c6c285c7d4fd0196af",
}


@pytest.mark.parametrize("backend", sorted(VERIFY_SHUFFLED_DIGESTS))
def test_verify_antichain_report_digest_on_a_poset_file_out_of_index_order(tmp_path, monkeypatch,
                                                                           backend):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "shuffled.poset").write_text(SHUFFLED_POSET, encoding="utf-8")
    digest = unseeded_report_digest(tmp_path, "verify", *VERIFY_SHUFFLED_ARGV, "--backend", backend)
    assert digest == VERIFY_SHUFFLED_DIGESTS[backend]


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
