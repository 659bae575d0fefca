from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from artifact.errors import (
    InvalidPayload,
    QueryTooShort,
    RationaleTooShort,
    TooManyVariants,
    UnknownArtifactType,
)
from artifact.needs import make_need, tokenize

RATIONALE = "structure data would resolve the binding question"


def test_valid_item():
    item = make_need("protein_data", "TP53 Y220C", RATIONALE)
    assert item.artifact_type == "protein_data"
    assert item.parallel_variants == ()
    assert item.preferred_skills == ()


def test_query_too_short():
    with pytest.raises(QueryTooShort):
        make_need("protein_data", "p53", RATIONALE)


def test_too_many_variants():
    with pytest.raises(TooManyVariants):
        make_need("protein_data", "TP53 Y220C", RATIONALE,
                  variants=[{"i": n} for n in range(7)])


@pytest.mark.parametrize("variant", [{1: "x"}, {"a": [{None: 1}]}, {"a": float("nan")}])
def test_variant_that_has_no_canonical_form_rejected(variant):
    # A store line writes variants without checking keys again.
    with pytest.raises(InvalidPayload):
        make_need("protein_data", "TP53 Y220C", RATIONALE, variants=[variant])


def test_rationale_too_short():
    with pytest.raises(RationaleTooShort):
        make_need("protein_data", "TP53 Y220C", "too short here")


def test_unknown_type_against_vocabulary():
    with pytest.raises(UnknownArtifactType):
        make_need("made_up", "TP53 Y220C", RATIONALE, known_types={"protein_data"})
    make_need("protein_data", "TP53 Y220C", RATIONALE, known_types={"protein_data"})


@pytest.mark.parametrize("query_len,ok", [(4, False), (5, True)])
def test_query_boundary(query_len, ok):
    query = "q" * query_len
    if ok:
        make_need("protein_data", query, RATIONALE)
    else:
        with pytest.raises(QueryTooShort):
            make_need("protein_data", query, RATIONALE)


@pytest.mark.parametrize("rationale_len,ok", [(19, False), (20, True)])
def test_rationale_boundary(rationale_len, ok):
    rationale = "r" * rationale_len
    if ok:
        make_need("protein_data", "query", rationale)
    else:
        with pytest.raises(RationaleTooShort):
            make_need("protein_data", "query", rationale)


@pytest.mark.parametrize("count,ok", [(6, True), (7, False)])
def test_variant_boundary(count, ok):
    variants = [{"i": n} for n in range(count)]
    if ok:
        item = make_need("protein_data", "query", RATIONALE, variants=variants)
        assert len(item.parallel_variants) == count
    else:
        with pytest.raises(TooManyVariants):
            make_need("protein_data", "query", RATIONALE, variants=variants)


# -- tokenize ---------------------------------------------------------------

def test_tokenize_example():
    assert tokenize("TP53 Y220C") == {"tp53", "y220c"}


def test_tokenize_drops_singletons():
    assert tokenize("a b") == set()


def test_tokenize_splits_on_punctuation():
    assert tokenize("beta-catenin/WNT pathway") == {"beta", "catenin", "wnt", "pathway"}


@given(st.text(max_size=40))
def test_tokenize_idempotent_on_joined_output(text):
    tokens = tokenize(text)
    assert tokenize(" ".join(sorted(tokens))) == tokens
