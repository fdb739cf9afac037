"""The package's records: each keeps its exact repr, refuses assignment,
compares and hashes by its fields, checks its fields when replaced, and
survives a pickle round trip."""

import pickle
from fractions import Fraction as F

import pytest

from umbralwalk import identities
from umbralwalk.cli import main
from umbralwalk.identities import (
    IdentityId, IdentityParams, TruncationPolicy, catalog, stated_audit_cases,
    verify,
)
from umbralwalk.loopcalc import LevelSystem, PhiMove, Walk, renewal_moves
from umbralwalk.montecarlo import (
    ComparisonReport, ConfigError, HittingEstimate, WalkConfig,
)
from umbralwalk.polynomials import Poly
from umbralwalk.series import PowerSeries
from umbralwalk.umbral import Family, QuadratureParams, SymbolBlock, UmbralExpr

_REPRS = [
    (
        lambda: PowerSeries((1, F(1, 2))),
        "PowerSeries(nums=(2, 1), den=2)",
    ),
    (lambda: Poly((0, F(-2, 3), 1)), "Poly(nums=(0, -2, 3), den=3)"),
    (
        lambda: SymbolBlock(Family.EULER, 2, 3, 0),
        "SymbolBlock(family=<Family.EULER: 'euler'>, coefficient=Fraction(2, 1),"
        " order=3, copy_id=0)",
    ),
    (
        lambda: UmbralExpr.build((Family.BERNOULLI, F(1, 2), 2), constant=1),
        "UmbralExpr(blocks=(SymbolBlock(family=<Family.BERNOULLI: 'bernoulli'>,"
        " coefficient=Fraction(1, 2), order=2, copy_id=1),),"
        " constant=Fraction(1, 1), has_x=True)",
    ),
    (
        QuadratureParams,
        "QuadratureParams(tol=1e-10, half_width=None, nodes=16,"
        " initial_panels=8, max_panels=4096)",
    ),
    (
        lambda: LevelSystem("1d", (0, 1, "3/2")),
        "LevelSystem(walk=<Walk.REFLECTED_1D: '1d'>, levels=(Fraction(0, 1),"
        " Fraction(1, 1), Fraction(3, 2)))",
    ),
    (
        lambda: PhiMove(0, 1, 2),
        "PhiMove(from_level=0, to_level=1, taboo_level=2)",
    ),
    (
        lambda: IdentityParams(n=2, x="1/3", levels=(1, 3)),
        "IdentityParams(n=2, x=Fraction(1, 3), levels=(Fraction(1, 1),"
        " Fraction(3, 1)), cheb_index=None, m=None)",
    ),
    (TruncationPolicy, "TruncationPolicy(tol=1e-12, stable_run=4, k_max=512)"),
    (
        lambda: verify(IdentityId.N3_UNIFORM, IdentityParams(n=1)),
        "IdentityReport(identity=<IdentityId.N3_UNIFORM: 'N3_UNIFORM'>,"
        " params=IdentityParams(n=1, x=Fraction(0, 1), levels=None,"
        " cheb_index=None, m=None), K_used=23, lhs_exact=Fraction(1, 2),"
        " rhs_partial_exact=Fraction(281474976710655, 562949953421312),"
        " residual_float=1.7763568394002505e-15,"
        " status=<Status.VERIFIED: 'VERIFIED'>)",
    ),
    (
        lambda: catalog()[0],
        "CatalogEntry(identity=<IdentityId.EULER_CHEB: 'EULER_CHEB'>,"
        " variant='stated', description='E_n(x) as a positive combination of"
        " higher-order Euler polynomials with reciprocal-Chebyshev weights',"
        " reference='Euler polynomials via N-site transition weights')",
    ),
    (
        lambda: stated_audit_cases()[0],
        "AuditCase(identity=<IdentityId.THREE_SITES_1D_STATED:"
        " 'THREE_SITES_1D_STATED'>, params=IdentityParams(n=1,"
        " x=Fraction(0, 1), levels=(Fraction(1, 1), Fraction(3, 1)),"
        " cheb_index=None, m=None), expected_lhs=Fraction(1, 3),"
        " expected_rhs_limit=Fraction(1, 9))",
    ),
    (
        lambda: WalkConfig("bessel", 1.0, 2.0, 0.5, paths=10),
        "WalkConfig(walk=<Walk.BESSEL_3D: 'bessel'>, start=1.0, target=2.0,"
        " z=0.5, taboo=None, dt=0.0001, paths=10, seed=0, t_max=50.0)",
    ),
    (
        lambda: HittingEstimate(0.5, 0.01, 3, 0, 1),
        "HittingEstimate(mean=0.5, stderr=0.01, n_hit_target=3, n_hit_taboo=0,"
        " n_censored=1)",
    ),
    (
        lambda: ComparisonReport(0.3, 0.01, True),
        "ComparisonReport(z_score=0.3, rel_err=0.01, passed=True)",
    ),
]


@pytest.mark.parametrize(
    "make, text", _REPRS, ids=[text.partition("(")[0] for _, text in _REPRS]
)
def test_record_repr_is_exact_and_fields_refuse_assignment(make, text):
    record = make()
    assert repr(record) == text
    field = text.partition("(")[2].partition("=")[0]
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    assert make() == record and hash(make()) == hash(record)


def test_bad_policy_error_line_prints_the_policy(capsys):
    code = main(["verify", "--id", "EULER_CHEB", "--N", "2", "--tol", "nan"])
    out, err = capsys.readouterr()
    assert (code, out) == (2, "")
    assert err == (
        "error: bad truncation policy: "
        "TruncationPolicy(tol=nan, stable_run=4, k_max=512)\n"
    )


def test_series_equality_and_hash_read_numerators_and_denominator():
    a, b = PowerSeries((1, F(1, 2))), PowerSeries.from_coeffs(("2/2", "3/6"), 2)
    assert PowerSeries._fields == ("nums", "den")
    assert (a.nums, a.den) == (b.nums, b.den) == ((2, 1), 2)
    assert a == b and hash(a) == hash(b) == hash(((2, 1), 2))
    assert a != PowerSeries((1, F(1, 3))) and a != PowerSeries((2, 1))


def test_replaced_walk_config_is_checked_again():
    cfg = WalkConfig(Walk.REFLECTED_1D, 1.0, 2.0, 0.5, paths=10)
    assert cfg._replace(paths=20).paths == 20
    with pytest.raises(ConfigError, match="dt and t_max must be positive"):
        cfg._replace(dt=0)


@pytest.mark.parametrize("record", [
    WalkConfig(Walk.REFLECTED_1D, 1.0, 2.0, 0.5, taboo=0.0, paths=10),
    IdentityParams(n=3, x=F(-1, 3), levels=(1, 2, 4)),
    LevelSystem(Walk.BESSEL_3D, (0, 1, 3)),
    PowerSeries((1, F(1, 2), 0)),
    Poly((0, F(-2, 3), 1)),
], ids=lambda r: type(r).__name__)
def test_record_pickle_round_trip(record):
    back = pickle.loads(pickle.dumps(record))
    assert type(back) is type(record)
    assert back == record and hash(back) == hash(record)
    assert repr(back) == repr(record)


def _tuple_records():
    """One of each namedtuple record, and whether it pickles (the spec
    table's lambdas and the weights' iterators do not)."""
    params = IdentityParams(n=1, x=F(1, 3), cheb_index=2)
    weights, _, _ = identities._SPECS[IdentityId.EULER_CHEB].right(params)
    return [
        (PhiMove(0, 1, 2), True),
        (renewal_moves(LevelSystem(Walk.REFLECTED_1D, (0, 1, 3)), 4), True),
        (verify(IdentityId.N3_UNIFORM, IdentityParams(n=1)), True),
        (catalog()[0], True),
        (stated_audit_cases()[0], True),
        (HittingEstimate(0.5, 0.01, 3, 0, 1), True),
        (ComparisonReport(0.3, 0.01, True), True),
        (identities._SPECS[IdentityId.EULER_CHEB], False),
        (weights, False),
    ]


@pytest.mark.parametrize(
    "record, pickles", _tuple_records(), ids=lambda r: type(r).__name__
)
def test_tuple_records_keep_the_namedtuple_api(record, pickles):
    cls = type(record)
    assert isinstance(record, tuple) and len(record) == len(cls._fields)
    *head, last = record
    assert (*head, last) == tuple(getattr(record, f) for f in cls._fields)
    assert record._asdict() == dict(zip(cls._fields, record))
    replaced = record._replace(**{cls._fields[0]: record[0]})
    assert type(replaced) is cls and replaced == record
    assert cls._make(record) == record
    # no instance dict: a name that is no field cannot be set
    with pytest.raises(AttributeError):
        record.not_a_field = 1
    if pickles:
        back = pickle.loads(pickle.dumps(record))
        assert type(back) is cls and back == record
        assert repr(back) == repr(record)
