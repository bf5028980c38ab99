import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import sqrt_mod_power_of_two_doubling
from practicum import (
    FalsificationSignal,
    InvalidInput,
    crt_solve,
    decompose_square_plus_practical,
    family_spec,
    family_stream,
    goldbach_pair,
    is_practical,
    is_practical_oracle,
    palindromic_practicals,
    power2_practical,
    practical_triples,
    sieve_practicals,
    sqrt_mod_power_of_two,
    verify_not_representable,
)
from practicum import representations
from practicum.cli import main
from practicum.practical import MultiplierCertificate
from practicum.representations import NON_REPRESENTABLE_J


def test_power2_practical_examples():
    assert power2_practical(2, 5).value == 20
    assert is_practical_oracle(20)
    assert power2_practical(1, 3).value == 6
    assert power2_practical(3, 16).value == 128  # boundary: 16 == sigma(8)+1
    with pytest.raises(InvalidInput, match="exceeds provable bound"):
        power2_practical(2, 9)
    with pytest.raises(InvalidInput):
        power2_practical(0, 1)
    with pytest.raises(InvalidInput, match="multiplier must be >= 1, got 0"):
        power2_practical(2, 0)


def test_sqrt_mod_power_of_two_examples():
    assert sqrt_mod_power_of_two(17, 3) == 7
    assert (7 * 7 - 17) % 32 == 0
    for k in range(1, 9):
        assert sqrt_mod_power_of_two(1, k) == 1
    assert sqrt_mod_power_of_two(9, 2) == 3
    with pytest.raises(InvalidInput, match="1 mod 8"):
        sqrt_mod_power_of_two(3, 2)
    with pytest.raises(InvalidInput):
        sqrt_mod_power_of_two(17, 0)


def test_sqrt_mod_power_of_two_induction_range():
    for m in range(1, 10**4, 8):
        for k in (1, 2, 3, 7, 12):
            x = sqrt_mod_power_of_two(m, k)
            assert 1 <= x <= (1 << k) - 1
            assert x % 2 == 1
            assert (x * x - m) % (1 << (k + 2)) == 0


def test_sqrt_mod_power_of_two_matches_the_doubling_induction():
    rng = random.Random(71)
    for _ in range(3000):
        k = rng.randint(1, 200)
        m = 8 * rng.getrandbits(rng.randint(0, 2 * k + 8)) + 1
        assert sqrt_mod_power_of_two(m, k) == sqrt_mod_power_of_two_doubling(m, k), (m, k)
    for _ in range(5):  # the 1000-digit inputs decompose sees: 3322 bits, k = 1660
        n = rng.getrandbits(3322) | 1 << 3321
        n += 1 - n % 8
        k = (n.bit_length() - 1) // 2
        assert sqrt_mod_power_of_two(n, k) == sqrt_mod_power_of_two_doubling(n, k)


def test_decompose_examples():
    d = decompose_square_plus_practical(17)
    assert (d.x, d.practical_part, d.m, d.s) == (1, 16, 2, 1)
    d = decompose_square_plus_practical(41)
    assert (d.x, d.practical_part, d.m, d.s) == (3, 32, 2, 2)
    d = decompose_square_plus_practical(9)
    assert (d.x, d.practical_part, d.m, d.s) == (1, 8, 1, 1)


def test_decompose_rejects_bad_input():
    for n in (1, 3, 8, 10, 15):
        with pytest.raises(InvalidInput):
            decompose_square_plus_practical(n)


def test_decompose_totality_small_with_oracle():
    for n in range(9, 20001, 8):
        d = decompose_square_plus_practical(n)
        assert d.x * d.x + d.practical_part == n
        assert 1 <= d.x <= (1 << d.m) - 1
        assert 1 <= d.s <= 1 << d.m
        assert d.certificate.verify()
        assert is_practical_oracle(d.practical_part)


def test_decompose_sampled_to_1e6_with_oracle():
    rng = random.Random(10)
    for _ in range(100):
        n = 8 * rng.randrange(1, 125000) + 1
        d = decompose_square_plus_practical(n)
        assert d.x * d.x + d.practical_part == n
        assert is_practical(d.practical_part).practical
        assert is_practical_oracle(d.practical_part)


def test_family_specs_match_crt_oracle():
    spec = family_spec(5)
    assert (spec.residue, spec.modulus) == (797, 840)
    for r, m in spec.congruences:
        assert 797 % m == r

    spec = family_spec(0)
    assert (spec.residue, spec.modulus) == (384152, 480480)
    for r, m in spec.congruences:
        assert 384152 % m == r
    assert 384152 % 8 == 0

    spec = family_spec(4)
    assert (spec.residue, spec.modulus) == (83852, 240240)
    for r, m in spec.congruences:
        assert 83852 % m == r
    assert 83852 % 8 == 4


def test_family_members():
    assert family_stream(5, 1) == [797]
    assert family_stream(2, 1) == [74]  # 2, 26, 50 dropped: m-1 is 1, 25, 49
    assert family_stream(2, 3) == [74, 98, 194]  # 122 (m-1=121), 146 (m-2=144) dropped
    assert family_stream(6, 3) == [14, 62, 86]  # 38 dropped: 38 = 6^2 + 2
    assert family_stream(3, 1) == [35]  # 11 dropped: 11 = 3^2 + 2
    assert family_stream(7, 1) == [23]
    assert all(m % 8 == j for j in (0, 2, 3, 4, 5, 6, 7) for m in family_stream(j, 8))


def test_family_invalid_j():
    with pytest.raises(InvalidInput, match="every number 1 mod 8"):
        family_spec(1)
    with pytest.raises(InvalidInput, match="j must be in"):
        family_stream(8, 1)
    with pytest.raises(InvalidInput):
        family_stream(0, 0)


def test_counts_are_capped_where_they_enter(capsys):
    family_cap = representations._FAMILY_COUNT_CAP
    chain_cap = representations._PALINDROMIC_COUNT_CAP
    assert family_stream(2, family_cap)[-1] % 8 == 2
    with pytest.raises(InvalidInput, match="_FAMILY_COUNT_CAP"):
        family_stream(3, family_cap + 1)
    with pytest.raises(InvalidInput, match="_PALINDROMIC_COUNT_CAP"):
        palindromic_practicals(chain_cap + 1)
    assert chain_cap >= 19  # the certify workload of bench/run.py asks for 19
    for argv in (["family", "3", "--count", str(10**40)], ["palindromic", "--count", "35"]):
        assert main(argv) == 2
        assert "_COUNT_CAP" in capsys.readouterr().err


def test_verify_not_representable_examples():
    assert verify_not_representable(797).not_representable
    assert verify_not_representable(74).not_representable
    rep = verify_not_representable(17)
    assert not rep.not_representable
    assert rep.counterexample == (1, 16)
    with pytest.raises(InvalidInput, match="m must be >= 1, got 0"):
        verify_not_representable(0)


def test_verify_not_representable_documents_the_p2_gap():
    # the mod-24 classes cannot block a practical remainder of 2; these are
    # the smallest members the uncorrected families would have emitted
    assert verify_not_representable(11).counterexample == (3, 2)
    assert verify_not_representable(38).counterexample == (6, 2)
    assert verify_not_representable(146).counterexample == (12, 2)


def test_verify_not_representable_trace():
    assert verify_not_representable(74).not_representable
    for x in range(9):  # x = 0..8, x^2 < 74
        verdict = is_practical(74 - x * x)
        assert not verdict.practical
        assert verdict.replay()


def test_family_soundness_first_members():
    for j in (0, 2, 3, 4, 5, 6, 7):
        for m in family_stream(j, 10):
            assert verify_not_representable(m).not_representable, (j, m)


# the square exclusions once written out by hand beside the congruences
_FORMER_EXCLUSIONS = {0: (), 2: (1, 2), 3: (2,), 4: (), 5: (), 6: (2,), 7: ()}


def _squares(q):
    return {x * x % q for x in range(q)}


def _obstruction(congruences):
    """The local-obstruction rule restated from its definition: the offsets
    2^v a family must drop, or None when its congruences do not keep every
    m - x^2 from being practical."""
    r, modulus = crt_solve(congruences)
    a = 0
    while modulus % 2 ** (a + 1) == 0:
        a += 1
    valuations = set()
    for x in range(2**a):
        rest = (r - x * x) % 2**a
        if rest == 0:
            return None
        valuations.add(min(v for v in range(a) if rest % 2 ** (v + 1)))
    for p in range(3, 2 ** (max(valuations) + 1) + 1):
        if all(p % d for d in range(2, p)) and (modulus % p or r % p in _squares(p)):
            return None
    return tuple(2**v for v in sorted(valuations)
                 if all((r - 2**v) % q in _squares(q) for _, q in congruences))


def test_derived_exclusions_equal_the_former_table():
    for j in NON_REPRESENTABLE_J:
        spec = family_spec(j)
        assert spec.square_exclusions == _obstruction(spec.congruences) == _FORMER_EXCLUSIONS[j], j


def test_a_residue_in_place_of_any_odd_congruence_breaks_the_rule(monkeypatch):
    """Every odd prime of every shipped family is needed with a non-residue:
    a residue (0 included) there in its place makes family_spec raise,
    naming that prime."""
    cases = 0
    for j in NON_REPRESENTABLE_J:
        congruences = family_spec(j).congruences
        for i, (r, q) in enumerate(congruences):
            for p in (p for p in (3, 5, 7, 11, 13) if q % p == 0):
                for s in _squares(p):
                    swapped = s if q == p else crt_solve([(r % (q // p), q // p), (s, p)])[0]
                    changed = congruences[:i] + ((swapped, q),) + congruences[i + 1:]
                    monkeypatch.setitem(representations._FAMILY_CONGRUENCES, j, changed)
                    with pytest.raises(FalsificationSignal, match=rf"mod {p}$"):
                        family_spec(j)
                    cases += 1
    assert cases == 2 * 22 + 9 + 4 * 2


def test_congruences_that_force_no_obstruction_raise(monkeypatch):
    for congruences, named in [
        (((1, 8), (2, 3), (2, 5), (3, 7)), "0 mod 8"),  # 1 - 1^2 = 0: v2(m - 1) is unbounded
        (((4, 16), (2, 3), (2, 5), (3, 7)), "0 mod 16"),
        (((2, 3), (2, 5)), "0 mod 1"),  # no power of 2 fixed at all
        (((5, 8), (2, 3), (2, 5)), "mod 7"),  # its member 77 = 7^2 + 4 * 7
        (((5, 8), (2, 3), (2, 5), (2, 7)), "mod 7"),  # 2 = 3^2 mod 7
    ]:
        assert _obstruction(congruences) is None
        monkeypatch.setitem(representations._FAMILY_CONGRUENCES, 5, congruences)
        with pytest.raises(FalsificationSignal, match=named):
            family_spec(5)
        with pytest.raises(FalsificationSignal):
            family_stream(5, 1)


def _random_systems(count, seed):
    """Systems of 2^a (3 <= a <= 6) and each of 3, 5, 7, 11 and 13 with
    probability 0.7, all with random residues."""
    rng = random.Random(seed)
    for _ in range(count):
        a = rng.randint(3, 6)
        system = [(rng.randrange(2**a), 2**a)]
        system += [(rng.randrange(p), p) for p in (3, 5, 7, 11, 13) if rng.random() < 0.7]
        yield tuple(system)


def test_random_families_follow_the_rule(monkeypatch):
    """Against the restated rule and the exhaustive search: a family that
    passes drops exactly the rule's offsets and its first six members are
    never x^2 + practical; one that fails raises, and one of its first
    three class members is x^2 + practical."""
    passed = 0
    for congruences in _random_systems(3000, seed=1):
        monkeypatch.setitem(representations._FAMILY_CONGRUENCES, 0, congruences)
        expected = _obstruction(congruences)
        if expected is None:
            with pytest.raises(FalsificationSignal):
                family_spec(0)
            r, modulus = crt_solve(congruences)
            first = [r + k * modulus for k in range(3) if r + k * modulus]
            representable = [m for m in first if not verify_not_representable(m).not_representable]
            assert representable, congruences
            continue
        passed += 1
        assert family_spec(0).square_exclusions == expected, congruences
        for m in family_stream(0, 6):
            assert verify_not_representable(m).not_representable, (congruences, m)
    assert passed == 392


def test_goldbach_examples():
    assert goldbach_pair(4) == (2, 2)
    assert goldbach_pair(12) == (4, 8)
    assert goldbach_pair(100) == (4, 96)
    assert goldbach_pair(2) == (1, 1)
    with pytest.raises(InvalidInput):
        goldbach_pair(7)
    with pytest.raises(InvalidInput):
        goldbach_pair(0)


def test_goldbach_pair_is_lexicographically_smallest():
    bm = sieve_practicals(2000)
    members = set(bm.members().tolist())
    for n in range(2, 2001, 2):
        p1, p2 = goldbach_pair(n, bm)
        assert p1 + p2 == n and p1 <= p2
        assert p1 in members and p2 in members
        for smaller in sorted(members):
            if smaller >= p1:
                break
            assert n - smaller not in members


def test_triples_examples():
    assert practical_triples(20) == [4, 6, 18]
    assert practical_triples(10) == [4, 6]
    assert practical_triples(2) == []
    with pytest.raises(InvalidInput, match="limit must be >= 1, got 0"):
        practical_triples(0)
    for m in practical_triples(500):
        assert all(is_practical(v).practical for v in (m - 2, m, m + 2))


def test_palindromic_examples():
    assert [e.value for e in palindromic_practicals(1)] == [88]
    assert [e.value for e in palindromic_practicals(2)] == [88, 8888]
    entries = palindromic_practicals(3)
    assert entries[2].value == 88888888
    assert entries[1].evidence.multiplier == 101
    assert entries[1].evidence.bound == 175
    assert entries[2].evidence.multiplier == 10001
    assert entries[2].evidence.bound == 2 * 8888 - 1


def test_palindromic_chain_certificates_and_palindromes():
    entries = palindromic_practicals(10)
    assert len(entries) == 10
    for e in entries:
        digits = str(e.value)
        assert digits == digits[::-1]
        assert set(digits) == {"8"}
        if e.index == 1:
            assert e.evidence.practical and e.evidence.replay()
        else:
            assert e.evidence.verify()
            assert e.evidence.value == e.value
    # small ones also pass the direct structure test
    for e in entries[:3]:
        assert is_practical(e.value).practical


PALINDROMIC_CHAIN = palindromic_practicals(8)
_FORGEABLE = ("base", "multiplier", "bound", "bound_kind", "base_evidence")


@settings(max_examples=200, deadline=None)
@given(
    depth=st.integers(2, len(PALINDROMIC_CHAIN)),
    field=st.sampled_from(_FORGEABLE),
    delta=st.integers(-3, 3).filter(bool),
    other=st.integers(1, len(PALINDROMIC_CHAIN)),
)
def test_forged_link_never_verifies_at_any_depth(depth, field, delta, other):
    """Change one field of the certificate at `depth` and relink every later
    certificate onto the forgery: neither the forgery nor the new top proves
    the value its original proved, although every original link has already
    verified (and memoized).  A changed multiplier may still be in bound, so
    the forgery can prove a different product, never the original one."""
    entries = PALINDROMIC_CHAIN
    assert all(e.evidence.verify() for e in entries[1:])
    cert = entries[depth - 1].evidence
    if field == "bound_kind":
        forged = "sigma" if cert.bound_kind == "doubling" else "doubling"
    elif field == "base_evidence":
        if other == depth - 1:
            other = depth
        forged = entries[other - 1].evidence
    else:
        forged = getattr(cert, field) + delta
    top = dataclasses.replace(cert, **{field: forged})
    assert not (top.verify() and top.value == cert.value)
    for entry in entries[depth:]:
        top = dataclasses.replace(entry.evidence, base_evidence=top)
    assert not (top.verify() and top.value == entries[-1].value)
    assert entries[-1].evidence.verify()


def test_chain_checks_each_link_once(monkeypatch):
    checked = []
    check = MultiplierCertificate._check

    def counting(self):
        checked.append(id(self))
        return check(self)

    monkeypatch.setattr(MultiplierCertificate, "_check", counting)
    entries = palindromic_practicals(19)
    links = [id(e.evidence) for e in entries[1:]]
    assert checked == links  # building checks each link once, in order, the last included
    assert all(e.evidence.verify() for e in entries[1:])
    assert all(e.evidence.practical for e in entries[1:])
    assert checked == links
    assert [e.index for e in entries] == list(range(1, 20))
    assert all(e.value == 8 * (10**2**e.index - 1) // 9 for e in entries)  # a run of 8s at every link
