"""Equivariant characters against independently expanded oracles.

Every character has a closed expansion in cos(theta) and i*sin(theta) over
the six monomials; the expected tables below were obtained by multiplying
out the line-bundle decompositions by hand, independently of the
constructor code, and the two must agree coefficient by coefficient.  The
characters the library evaluates from the derived generic class are also
checked element by element against the same line-bundle algebra run over
each element's own field phases (the oracle's zeta and Cyc), and the
identity chi(1/z) = conj chi(z) of the derived characters slot by slot.
"""

import json

import pytest
from fractions import Fraction as F

from oracles import Cyc, character, cos_of, sin_times_i_of, zeta
from orbifold_index import bundles, cli, index as index_mod
from orbifold_index.bundles import (
    GroupElement,
    Z,
    Z_BAR,
    _line_characters,
    character_dump,
    derive_characters,
)
from orbifold_index.ring import CohomElement
from orbifold_index.scalars import (
    ConsistencyError,
    Cyclotomic,
    Laurent,
)


def _expansion(gamma, table):
    """CohomElement with each slot a polynomial in c = cos, s = i*sin:
    table maps slot -> list of (const, c-coeff, c^2-coeff, s-coeff, s*c-coeff)."""
    p = gamma.p
    c = cos_of(p, gamma.j)
    s = sin_times_i_of(p, gamma.j)
    one = Cyc.from_rational(p, 1)

    def build(row):
        k0, k1, k2, m1, m2 = row
        return (one * k0 + c * k1 + c * c * k2 + s * m1 + s * c * m2).value()

    return CohomElement(*(build(table[slot]) for slot in
                          ("1", "e", "h", "ee", "eh", "hh")))


SLOTS = ("c0", "ce", "ch", "cee", "ceh", "chh")
_Z = (0, 0, 0, 0, 0)

_EXPANSIONS = {
    # cotangent: (2 + e^2) + cos(2 + h^2) + i sin(2h)
    "cotangent": {"1": (2, 2, 0, 0, 0), "e": _Z, "h": (0, 0, 0, 2, 0),
                   "ee": (1, 0, 0, 0, 0), "eh": _Z, "hh": (0, 1, 0, 0, 0)},
    # 1 + cos(2 + 2eh + e^2 + h^2) + i sin(2e + 2h)
    "lambda_plus": {"1": (1, 2, 0, 0, 0), "e": (0, 0, 0, 2, 0),
                     "h": (0, 0, 0, 2, 0), "ee": (0, 1, 0, 0, 0),
                     "eh": (0, 2, 0, 0, 0), "hh": (0, 1, 0, 0, 0)},
    # 1 + cos(2 - 2eh + e^2 + h^2) + i sin(-2e + 2h)
    "lambda_minus": {"1": (1, 2, 0, 0, 0), "e": (0, 0, 0, -2, 0),
                      "h": (0, 0, 0, 2, 0), "ee": (0, 1, 0, 0, 0),
                      "eh": (0, -2, 0, 0, 0), "hh": (0, 1, 0, 0, 0)},
    # [1+4c+4c^2] + h[4s+8sc] + e^2[4+2c] + h^2[-4+2c+8c^2]
    "s20_cotangent": {"1": (1, 4, 4, 0, 0), "e": _Z, "h": (0, 0, 0, 4, 8),
                       "ee": (4, 2, 0, 0, 0), "eh": _Z,
                       "hh": (-4, 2, 8, 0, 0)},
    # [-1+2c+4c^2] + (e+h)[2s+8sc] + eh[-8+2c+16c^2] + (e^2+h^2)[-4+c+8c^2]
    "s20_lambda_plus": {"1": (-1, 2, 4, 0, 0), "e": (0, 0, 0, 2, 8),
                         "h": (0, 0, 0, 2, 8), "ee": (-4, 1, 8, 0, 0),
                         "eh": (-8, 2, 16, 0, 0), "hh": (-4, 1, 8, 0, 0)},
    # e[2s+8sc] + eh[-8+2c+16c^2] + e^2[8c^2-c-7]
    "symbol": {"1": _Z, "e": (0, 0, 0, 2, 8), "h": _Z,
                "ee": (-7, -1, 8, 0, 0), "eh": (-8, 2, 16, 0, 0), "hh": _Z},
    # 2 - cos(2 + h^2) - i sin(2h)
    "thom": {"1": (2, -2, 0, 0, 0), "e": _Z, "h": (0, 0, 0, -2, 0),
              "ee": _Z, "eh": _Z, "hh": (0, -1, 0, 0, 0)},
}


def _elements(p_max, extras=()):
    out = [GroupElement(p, j) for p in range(1, p_max + 1) for j in range(p)]
    out += [GroupElement(p, j) for p, j in extras]
    return out


@pytest.mark.parametrize("gamma", _elements(16, extras=[(30, 7), (31, 11)]))
def test_characters_match_their_expansions(gamma):
    for name, table in _EXPANSIONS.items():
        assert character(name, gamma) == _expansion(gamma, table), name


def _lines(p, j):
    """The trivial line, Theta1, Theta1-bar, Theta2, Theta2-bar over the
    field phases of GroupElement(p, j)."""
    return _line_characters(zeta(p, j), zeta(p, -j))


def test_line_character_examples():
    _, c, _, _, _ = _lines(7, 3)  # Theta1
    assert (c.c0.as_rational(), c.ce.as_rational(), c.cee.as_rational()) == (1, 1, F(1, 2))
    trivial, _, _, c, _ = _lines(2, 1)  # Theta2
    assert (c.c0.as_rational(), c.ch.as_rational(), c.chh.as_rational()) == (-1, -1, F(-1, 2))
    _, _, _, _, c = _lines(4, 0)  # Theta2-bar
    assert (c.c0.as_rational(), c.ch.as_rational(), c.chh.as_rational()) == (1, -1, F(1, 2))
    assert trivial == CohomElement.constant(Cyc.from_rational(2, 1))


def test_line_conjugate_pairs():
    for p, j in [(3, 1), (5, 2), (8, 3)]:
        _, t1, t1_bar, t2, t2_bar = _lines(p, j)
        for x, y in [(t1, t1_bar), (t2, t2_bar)]:
            # swapping bars conjugates the character and flips the fiber class
            assert y.c0 == x.c0.conjugate()
            assert y.ch == -x.ch.conjugate()


def test_cotangent_is_sum_of_lines():
    for p, j in [(5, 2), (9, 4)]:
        total = CohomElement.constant(Cyc.from_rational(p, 0))
        for line in _lines(p, j)[1:]:
            total = total + line
        assert total.map(Cyc.value) == character("cotangent", GroupElement(p, j))


def test_symbol_spot_values():
    c = character("symbol", GroupElement(2, 1))
    vals = [getattr(c, s).as_rational() for s in SLOTS]
    assert vals == [0, 0, 0, 2, 6, 0]  # 6 e h + 2 e^2 at cos = -1


def test_thom_spot_values():
    c = character("thom", GroupElement(2, 1))
    assert c.c0.as_rational() == 4 and c.chh.as_rational() == 1
    c = character("thom", GroupElement(4, 0))
    assert not c.c0 and c.chh.as_rational() == -1  # identity: rank term cancels
    c = character("thom", GroupElement(4, 1))
    assert c.c0.as_rational() == 2 and c.ch == (-2 * zeta(4, 1)).value()


_RANKS = [("cotangent", 4), ("lambda_plus", 3), ("lambda_minus", 3),
          ("s20_cotangent", 9), ("s20_lambda_plus", 5)]


def test_rank_consistency():
    for p in range(1, 51):
        identity = GroupElement(p, 0)
        for name, rank in _RANKS:
            assert character(name, identity).c0.as_rational() == rank, (p, name)


def test_conjugation_symmetry_all_constructors():
    names = [name for name, _ in _RANKS] + ["symbol", "thom"]
    for p in range(2, 31):
        for j in range(1, p):
            a, b = GroupElement(p, j), GroupElement(p, p - j)
            for name in names:
                x, y = character(name, a), character(name, b)
                for slot in SLOTS:
                    assert getattr(x, slot).conjugate() == getattr(y, slot), \
                        (p, j, name, slot)


def test_symbol_always_divisible_by_e():
    for p in range(2, 31):
        for j in range(1, p):
            c = character("symbol", GroupElement(p, j))
            assert not c.c0 and not c.ch and not c.chh, (p, j)


def test_group_element_validation():
    with pytest.raises(ValueError):
        GroupElement(0, 0)
    with pytest.raises(ValueError):
        GroupElement(5, 5)
    with pytest.raises(ValueError):
        GroupElement(5, -1)


def test_character_dump_shape():
    dump = character_dump(GroupElement(4, 1))
    assert set(dump) == {"cotangent", "lambda_plus", "lambda_minus",
                         "s20_cotangent", "s20_lambda_plus", "symbol", "thom"}
    assert dump["thom"]["1"] == {"order": 4, "coeffs": ["2", "0"]}


@pytest.mark.parametrize("p", range(1, 41))
def test_evaluated_characters_match_the_cyclotomic_algebra(p):
    for j in range(p):
        gamma = GroupElement(p, j)
        built = derive_characters(zeta(p, j), zeta(p, -j))  # the algebra over zeta_p^j itself
        for name in bundles.generic_characters():
            got = character(name, gamma)
            assert got == built[name].map(Cyc.value), (p, j, name)
            assert all(type(s) is Cyclotomic for s in vars(got).values()), (p, j, name)


def test_evaluated_characters_match_the_cyclotomic_algebra_at_larger_orders():
    # beyond the exhaustive p <= 40 above: sampled elements of orders up to
    # 400, composite orders with many divisors drawn as often as any order
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    orders = st.integers(41, 400) | st.sampled_from([60, 120, 180, 210, 240, 330, 360, 390])

    @settings(max_examples=25, deadline=None, database=None, derandomize=True)
    @given(st.sampled_from(sorted(bundles.generic_characters())),
           orders.flatmap(lambda p: st.tuples(st.just(p), st.integers(0, p - 1))))
    def check(name, pj):
        p, j = pj
        built = derive_characters(zeta(p, j), zeta(p, -j))[name]
        gamma = GroupElement(p, j)
        assert character(name, gamma) == built.map(Cyc.value), (p, j, name)
        assert character_dump(gamma)[name] == built.map(Cyc.value).to_json(), (p, j, name)

    check()


def test_characters_are_not_cached_per_element():
    for p, j in [(5, 2), (7, 3), (97, 40)]:
        character_dump(GroupElement(p, j))
    cached = {n for n, f in vars(bundles).items() if hasattr(f, "cache_info")}
    assert cached == {"generic_characters"}
    assert bundles.generic_characters.cache_info().currsize == 1


def test_a_dump_evaluates_each_distinct_class_once(monkeypatch):
    # the seven characters' 42 slots hold 19 distinct nonzero classes and the
    # one interned zero; correction_at evaluates its own six slots
    calls = []
    real = Laurent.at
    monkeypatch.setattr(Laurent, "at", lambda s, p, j: calls.append(s) or real(s, p, j))
    gamma = GroupElement(23, 5)
    dump = character_dump(gamma)
    assert len(calls) == len({id(s) for s in calls}) == 20
    assert sum(not s for s in calls) == 1
    calls.clear()
    index_mod.correction_at(gamma)
    assert len(calls) == 6
    monkeypatch.undo()
    assert dump == {name: character(name, gamma).to_json() for name in bundles.generic_characters()}


def test_distinct_classes_lists_each_interned_class_once():
    # by identity: the 42 slots are 20 objects, and the symbol's 1, h and
    # h^2 slots, which verify's divisibility suite reads, are one zero
    chars = bundles.generic_characters()
    every = bundles.distinct_classes(chars.values())
    assert len(every) == 20 and all(id(s) == key for key, s in every.items())
    assert sum(not s for s in every.values()) == 1
    read = bundles.distinct_classes((chars["symbol"],), ("c0", "ch", "chh"))
    assert list(read.values()) == [Laurent({})]


def _literal_z(chars):  # z whatever the phase: the run at z^-1 is no conjugate
    c = chars["lambda_plus"]
    chars["lambda_plus"] = CohomElement(c.c0 + Laurent({1: 1}), c.ce, c.ch, c.cee, c.ceh, c.chh)


def _not_conjugate_at_inverse_phase(derive):
    """The (name, slot) pairs where derive(Z_BAR, Z) is not Laurent.conjugate
    of derive(Z, Z_BAR)."""
    at_z, at_z_bar = derive(Z, Z_BAR), derive(Z_BAR, Z)
    assert set(at_z) == set(at_z_bar) == set(_EXPANSIONS)
    return [(name, slot) for name, c in at_z.items() for slot in SLOTS
            if getattr(c, slot).conjugate() != getattr(at_z_bar[name], slot)]


def test_characters_at_the_inverse_phase_are_their_conjugates():
    # chi(1/z) = conj chi(z) in every slot of all seven characters: the
    # identity takes no input, so it is checked here and not by every process
    assert _not_conjugate_at_inverse_phase(derive_characters) == []

    def skewed(z, z_bar):
        chars = derive_characters(z, z_bar)
        _literal_z(chars)
        return chars

    assert _not_conjugate_at_inverse_phase(skewed) == [("lambda_plus", "c0")]


def test_generic_characters_are_derived_once_per_process(monkeypatch):
    calls = []
    real = bundles.derive_characters
    monkeypatch.setattr(bundles, "derive_characters",
                        lambda z, z_bar: calls.append((z, z_bar)) or real(z, z_bar))
    bundles.generic_characters.cache_clear()
    try:
        for _ in range(3):
            bundles.generic_characters()
        character_dump(GroupElement(7, 3))
        assert calls == [(Z, Z_BAR)]
    finally:
        bundles.generic_characters.cache_clear()


def _symbol_constant(chars):  # a 1 part: the symbol is not divisible by e
    chars["symbol"] = chars["symbol"] + CohomElement.constant(Laurent({0: 1}))


@pytest.mark.parametrize("fault,message", [(_symbol_constant, "divisible")])
def test_symbolic_checks_reject_a_skewed_generic_character(capsys, monkeypatch,
                                                           fault, message):
    real = bundles.derive_characters

    def skewed(z, z_bar):
        chars = real(z, z_bar)
        if isinstance(z, Laurent):  # the generic run, never the oracle's
            fault(chars)
        return chars

    monkeypatch.setattr(bundles, "derive_characters", skewed)
    bundles.generic_characters.cache_clear()
    index_mod.correction_class.cache_clear()  # it must read the table again
    try:
        with pytest.raises(ConsistencyError, match=message):
            bundles.generic_characters()
        with pytest.raises(ConsistencyError, match=message):
            character("thom", GroupElement(5, 2))  # no character is evaluated unchecked
        # verify reports the failed identity as a failed check, not a crash
        assert cli.main(["--json", "verify", "--p-max", "3"]) == 2
        suites = json.loads(capsys.readouterr().out)["suites"]
        for name in ("correction", "conjugation", "rank", "divisibility"):
            assert suites[name]["fail"] == [2, 3], name
    finally:
        bundles.generic_characters.cache_clear()
        index_mod.correction_class.cache_clear()
