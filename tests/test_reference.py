from horokit import reference_tables as rt
from horokit.rootdata import enumerate_smooth_quadruples

ALL_FAMILIES = [("A", range(1, 9)), ("B", range(3, 9)), ("C", range(2, 9)),
                ("D", range(4, 9)), ("E", (6, 7, 8)), ("F", (4,)), ("G", (2,))]


def _diff(fam, m, n_flag):
    return rt.diff_against_reference(fam, m, n_flag,
                                     enumerate_smooth_quadruples(fam, m, n_flag))


def test_every_discrepancy_is_whitelisted():
    for fam, ranks in ALL_FAMILIES:
        for m in ranks:
            for n_flag in (1, 2):
                for side, b, R, reason in _diff(fam, m, n_flag):
                    assert reason is not None, \
                        (fam, m, n_flag, side, b, sorted(R))


def test_reference_is_mostly_exact():
    # the transcription defects are rare: a handful of families only
    bad = 0
    for fam, ranks in ALL_FAMILIES:
        for m in ranks:
            for n_flag in (1, 2):
                bad += len(_diff(fam, m, n_flag))
    assert bad < 80


def test_rank_one_list_counts():
    # six configurations in the rank-one exceptional-F list (oracle count of
    # the transcription; derived independently from the Levi blocks)
    assert len(rt.part1("F", 4)) == 6
    got = [R for b, R in enumerate_smooth_quadruples("F", 4, 1)
           if b == 2 and len(R) == 2]
    # the one pair inside a single Levi block of the second node
    assert frozenset({3, 4}) in got
    pairs = set(rt.part1("G", 2)) | set(rt.part2("G", 2))
    assert set(rt.part2("G", 2)) == {(1, frozenset({2})), (2, frozenset({1}))}


def test_enumerator_subsumes_reference_modulo_whitelist():
    # every reference entry the enumerator rejects must be whitelisted as a
    # transcription defect ("missing" side); currently there are none
    for fam, ranks in ALL_FAMILIES:
        for m in ranks:
            for n_flag in (1, 2):
                missing = [d for d in _diff(fam, m, n_flag)
                           if d[0] == "missing"]
                assert missing == []
