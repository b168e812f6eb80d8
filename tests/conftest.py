"""Shared helpers and slow corpora fixtures."""

import itertools

import pytest

from hornreduce.clauses import (
    Atom,
    HornClause,
    PredVar,
    parse_clause,
    pending_variables,
)


def cl(text: str) -> HornClause:
    """Parse shortcut for tests."""
    return parse_clause(text)


def c_base() -> HornClause:
    """The dyadic clause whose every extension family member is irreducible."""
    return cl("P0(x1,x2) :- P1(x1,x3), P2(x1,x4), P3(x2,x3), P4(x2,x4), P5(x3,x4).")


def c_triadic() -> HornClause:
    """The triadic clause reducible by standard resolution but not by SLD."""
    return cl("P0(x1,x2,x3) :- P1(x1,x4,x5), P2(x2,x5,x6), P3(x3,x4,x6).")


# ---------------------------------------------------------------------------
# Independent oracles (deliberately dumb; used to freeze expectations)
# ---------------------------------------------------------------------------

def oracle_canonical_serialization(c: HornClause):
    """Minimal serialization by brute force over all body permutations."""
    def serialize(atoms):
        pidx, tidx, out = {}, {}, []
        for atom in atoms:
            if atom.pred not in pidx:
                pidx[atom.pred] = len(pidx)
            key = [pidx[atom.pred]]
            for v in atom.args:
                if v not in tidx:
                    tidx[v] = len(tidx) + 1
                key.append(tidx[v])
            out.append(tuple(key))
        return tuple(out)

    prefix = (c.head,) if c.head is not None else ()
    return min(serialize(prefix + tuple(perm))
               for perm in itertools.permutations(c.body))


def oracle_canonical_key(c: HornClause):
    return (c.head is not None, oracle_canonical_serialization(c))


def oracle_cut_pending(c: HornClause, body_indices):
    """Pending variables of a cut, counted per side with plain dicts: a
    variable is pending when it occurs on both sides but in one distinct
    literal on at least one of them.  The head stays on side 1."""
    idx = set(body_indices)

    def occurrences(atoms):
        occ = {}
        for atom in atoms:
            for v in set(atom.args):
                occ[v] = occ.get(v, 0) + 1
        return occ

    occ1 = occurrences(([c.head] if c.head is not None else [])
                       + [a for k, a in enumerate(c.body) if k not in idx])
    occ2 = occurrences(c.body[k] for k in sorted(idx))
    return tuple(v for v in c.term_vars()
                 if v in occ1 and v in occ2 and 1 in (occ1[v], occ2[v]))


def oracle_is_connected(c: HornClause) -> bool:
    """Connectivity of the literal graph by breadth-first search over the
    literal pairs that share a variable."""
    lits = c.literals()
    if len(lits) <= 1:
        return True
    seen, frontier = {0}, [0]
    while frontier:
        nxt = []
        for u in frontier:
            for w in range(len(lits)):
                if w not in seen and set(lits[u].args) & set(lits[w].args):
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return len(seen) == len(lits)


def oracle_size_ok(spec, c: HornClause) -> bool:
    if c.head is None:
        return False
    if any(not 1 <= a.pred.arity <= spec.max_arity for a in c.literals()):
        return False
    if spec.max_body == 0:
        return c.body_size == 0
    return 1 <= c.body_size <= spec.max_body


def oracle_structural_ok(spec, c: HornClause) -> bool:
    preds = [a.pred for a in c.literals()]
    return (oracle_size_ok(spec, c)
            and not (spec.distinct_predvars and len(set(preds)) != len(preds))
            and not (spec.connected and not oracle_is_connected(c))
            and not (spec.two_connected and pending_variables(c)))


def oracle_most_general_in(spec, c: HornClause) -> bool:
    """Most-generality by building every single split and testing it."""
    from hornreduce.fragments import single_splits
    valid = oracle_structural_ok if spec.structural_generalizers else oracle_size_ok
    return not any(valid(spec, g) for g in single_splits(c))


def oracle_member(spec, c: HornClause) -> bool:
    return oracle_structural_ok(spec, c) and (
        not spec.most_general or oracle_most_general_in(spec, c))


@pytest.fixture(scope="session")
def corpus_c13():
    from hornreduce.fragments import horn_c
    from hornreduce.fragments import enumerate_fragment
    return enumerate_fragment(horn_c(1, 3))


@pytest.fixture(scope="session")
def corpus_c23():
    from hornreduce.fragments import horn_c, enumerate_fragment
    return enumerate_fragment(horn_c(2, 3))


@pytest.fixture(scope="session")
def corpus_c24():
    from hornreduce.fragments import horn_c, enumerate_fragment
    return enumerate_fragment(horn_c(2, 4))


@pytest.fixture(scope="session")
def corpus_2c24():
    from hornreduce.fragments import horn_2c, enumerate_fragment
    return enumerate_fragment(horn_2c(2, 4))


@pytest.fixture(scope="session")
def corpus_c33():
    from hornreduce.fragments import horn_c, enumerate_fragment
    return enumerate_fragment(horn_c(3, 3))
