"""Top-level package surface: everything in __all__ resolves and works."""

import entwit


def test_all_names_resolve():
    for name in entwit.__all__:
        assert getattr(entwit, name, None) is not None, name


def test_end_to_end_through_top_level():
    rho = entwit.isotropic(3, 0.5)
    flag, reports = entwit.detect_entanglement(rho)
    assert flag and len(reports) == 9
    rep = entwit.cren_lower_bound(rho)
    assert abs(rep.bound - (4.0 * 0.5 - 1.0) / 3.0) < 1e-8
    assert entwit.__version__ == "0.1.0"


def test_array_holders_compare_by_identity_and_hash():
    # a dataclass that holds arrays compares by identity: == on two equal states
    # would otherwise compare their arrays and raise, and hash() would fail
    pair = entwit.GeneratorPair(0, 1, 3)
    rho = entwit.isotropic(3, 0.5)
    psi = entwit.random_pure(entwit.Dims(3, 3), 0)
    triad = entwit.triad_from_rotation(entwit.rotation_zyz(0.1, 0.2, 0.3))
    e = [1.0, 0.0, 0.0]
    holders = [
        (rho, entwit.isotropic(3, 0.5)),
        (psi, entwit.random_pure(entwit.Dims(3, 3), 0)),
        (entwit.schmidt(psi), entwit.schmidt(psi)),
        (triad, entwit.triad_from_rotation(entwit.rotation_zyz(0.1, 0.2, 0.3))),
        (entwit.embed_observable(pair, e), entwit.embed_observable(pair, e)),
        (entwit.BellSettings(pair, pair, e, e, e, e), entwit.BellSettings(pair, pair, e, e, e, e)),
    ]
    for one, twin in holders:
        assert one == one and one != twin and one in {one} and twin not in {one}
        assert hash(one) == hash(one) != hash(twin)
    # settings and projections that hold them compare field by field, each held object by identity
    settings = entwit.WitnessSettings(pair, pair, triad, triad)
    assert settings == entwit.WitnessSettings(pair, pair, triad, triad) and settings in {settings}
    assert settings != entwit.WitnessSettings(pair, pair, triad, holders[3][1])
    projected = entwit.project_state(rho, pair, pair)
    assert projected == entwit.ProjectedState(projected.c, projected.rho_ab) and projected in {projected}
    assert projected != entwit.project_state(rho, pair, pair)
