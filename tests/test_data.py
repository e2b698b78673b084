"""Data layer: action codec, episode containers, CSV round trips,
normalization, splitting, and the synthetic generator."""
import csv
import json
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sepsim.data import (ACTION_COUNT, Cohort, CsvSchema, N_FEATURES, Outcome,
                         PatientEpisode, SyntheticDynamicsSpec,
                         action_intensity, compute_normalization,
                         decode_action, default_feature_names,
                         encode_action, export_cohort,
                         generate_synthetic_cohort, load_cohort,
                         normalize_cohort, prepare_cohorts, split_cohort)


@given(st.integers(0, 4), st.integers(0, 4))
def test_action_codec_bijection(iv, vaso):
    code = encode_action(iv, vaso)
    assert 0 <= code < ACTION_COUNT
    assert decode_action(code) == (iv, vaso)


def test_action_code_is_iv_major():
    assert encode_action(0, 0) == 0
    assert encode_action(0, 4) == 4
    assert encode_action(1, 0) == 5
    assert encode_action(4, 4) == 24


def test_intensity_is_dose_sum():
    assert action_intensity(0) == 0
    assert action_intensity(24) == 8
    assert action_intensity(encode_action(2, 3)) == 5


def test_encode_action_rejects_out_of_range():
    with pytest.raises(ValueError):
        encode_action(5, 0)
    with pytest.raises(ValueError):
        decode_action(25)


@pytest.mark.parametrize("code", [3.7, 0.5, -0.5, float("nan"), float("inf"),
                                  -float("inf"), np.float64(2.5)])
def test_decode_action_refuses_a_non_integer_code(code):
    with pytest.raises(ValueError, match=re.escape(f"non-integer action codes: [{float(code)!r}]")):
        decode_action(code)


@pytest.mark.parametrize("code", [3, 3.0, np.int64(3), np.uint8(3),
                                  np.float64(3.0)])
def test_decode_action_takes_integral_codes(code):
    assert decode_action(code) == (0, 3)


@pytest.mark.parametrize("actions, named", [([0.5, 3.9], "[0.5, 3.9]"),
                                             ([0, 3.9, 2], "[3.9]"),
                                             ([0.0, np.nan], "[nan]"),
                                             ([np.inf, 1.0], "[inf]"),
                                             ([1.0, -np.inf], "[-inf]")])
def test_episode_refuses_non_integer_action_codes(actions, named):
    message = f"non-integer action codes in episode 'x': {named}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        PatientEpisode("x", np.zeros((len(actions), N_FEATURES)), actions,
                       Outcome.RELEASE)


@pytest.mark.parametrize("actions", [[1, 3], [1.0, 3.0], np.array([1.0, 3.0]),
                                     np.array([1, 3], dtype=np.uint8),
                                     np.array([1, 3], dtype=np.int32)])
def test_episode_takes_integral_action_codes(actions):
    episode = PatientEpisode("x", np.zeros((2, N_FEATURES)), actions,
                             Outcome.RELEASE)
    assert episode.actions.dtype == np.int64
    assert episode.actions.tolist() == [1, 3]


@pytest.mark.parametrize("code", [1e300, -1e300, 25.0, -1.0])
def test_episode_refuses_integral_float_codes_out_of_range(code):
    with pytest.raises(ValueError, match="action codes out of range"):
        PatientEpisode("x", np.zeros((2, N_FEATURES)), np.array([code, 0.0]),
                       Outcome.RELEASE)


def make_episode(rng, length=4, subject="p1"):
    return PatientEpisode(subject, rng.normal(size=(length, N_FEATURES)),
                          rng.integers(0, ACTION_COUNT, size=length),
                          Outcome.RELEASE)


def test_episode_validation(rng):
    with pytest.raises(ValueError):
        PatientEpisode("x", rng.normal(size=(3, 10)), np.zeros(3, dtype=int),
                       Outcome.DEATH)
    with pytest.raises(ValueError):
        PatientEpisode("x", rng.normal(size=(3, N_FEATURES)),
                       np.array([0, 1, 99]), Outcome.DEATH)
    bad = rng.normal(size=(2, N_FEATURES))
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        PatientEpisode("x", bad, np.zeros(2, dtype=int), Outcome.RELEASE)


def test_csv_round_trip_is_exact(tmp_path, rng):
    episodes = tuple(make_episode(rng, length=l, subject=f"s{i}")
                     for i, l in enumerate((1, 3, 7)))
    cohort = Cohort(episodes, tuple(f"f_{i}" for i in range(N_FEATURES)))
    path = tmp_path / "cohort.csv"
    export_cohort(cohort, path)
    back = load_cohort(path)
    assert back.n_episodes == 3
    for a, b in zip(cohort.episodes, back.episodes):
        assert a.subject_id == b.subject_id
        np.testing.assert_array_equal(a.states, b.states)  # bit-exact floats
        np.testing.assert_array_equal(a.actions, b.actions)
        assert a.outcome == b.outcome


def test_load_cohort_names_missing_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("subject_id,step\n", encoding="utf-8")
    with pytest.raises(ValueError, match="missing column 'action'"):
        load_cohort(path)


def test_load_cohort_refuses_a_file_csv_cannot_read(tmp_path):
    """A field over csv's size limit raises csv.Error, which is no
    ValueError; load_cohort refuses it as one, so a caller's rule for a
    file it cannot use covers it."""
    limit = csv.field_size_limit()
    path = tmp_path / "huge_field.csv"
    path.write_text("subject_id," + "x" * (limit + 1) + "\n", encoding="utf-8")
    message = f"not a readable CSV file: field larger than field limit ({limit})"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        load_cohort(path)


@pytest.mark.parametrize("cell", ["abc", ""])
def test_load_cohort_names_bad_feature_cell(tmp_path, rng, cell):
    cohort = Cohort((make_episode(rng, 3),),
                    tuple(f"f_{i}" for i in range(N_FEATURES)))
    path = tmp_path / "c.csv"
    export_cohort(cohort, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    row = lines[2].split(",")
    row[header.index("f_7")] = cell
    lines[2] = ",".join(row)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=(f"non-numeric value '{cell}' in "
                                          "column 'f_7' at data row 1")):
        load_cohort(path)


def _exported_lines(tmp_path, rng, length=3):
    cohort = Cohort((make_episode(rng, length),),
                    tuple(f"f_{i}" for i in range(N_FEATURES)))
    path = tmp_path / "c.csv"
    export_cohort(cohort, path)
    return cohort, path, path.read_text(encoding="utf-8").splitlines()


def test_load_cohort_short_row_fails_on_first_missing_feature(tmp_path, rng):
    _, path, lines = _exported_lines(tmp_path, rng)
    # keep subject_id, step and f_0..f_9; the cell of f_10 is missing
    lines[2] = ",".join(lines[2].split(",")[:12])
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match=("non-numeric value None in column "
                                          "'f_10' at data row 1")):
        load_cohort(path)


def test_load_cohort_row_without_outcome_cell_has_no_outcome(tmp_path, rng):
    cohort, path, lines = _exported_lines(tmp_path, rng)
    assert lines[1].endswith(",0,")  # non-terminal row, empty outcome cell
    lines[1] = lines[1][:-1]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    back = load_cohort(path)
    np.testing.assert_array_equal(back.episodes[0].states,
                                  cohort.episodes[0].states)
    # on the terminal row the missing outcome is an error
    lines[-1] = lines[-1].rsplit(",", 1)[0]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match="outcome on the terminal row only"):
        load_cohort(path)


def test_load_cohort_skips_blank_lines_in_row_numbers(tmp_path, rng):
    cohort, path, lines = _exported_lines(tmp_path, rng)
    path.write_text("\n".join(lines[:2] + ["", ""] + lines[2:]) + "\n",
                    encoding="utf-8")
    back = load_cohort(path)
    np.testing.assert_array_equal(back.episodes[0].states,
                                  cohort.episodes[0].states)
    np.testing.assert_array_equal(back.episodes[0].actions,
                                  cohort.episodes[0].actions)
    row = lines[3].split(",")
    row[1] = "x"
    lines[3] = ",".join(row)
    path.write_text("\n".join(lines[:2] + [""] + lines[2:]) + "\n",
                    encoding="utf-8")
    with pytest.raises(ValueError, match=("non-numeric value 'x' in column "
                                          "'step' at data row 2")):
        load_cohort(path)


def test_load_cohort_other_errors_keep_their_text(tmp_path, rng):
    _, path, lines = _exported_lines(tmp_path, rng)
    for edit, message in [
            (lambda r: r[:-2] + ["2", ""], "terminal flag must be 0 or 1 at "
                                           "data row 0"),
            (lambda r: r[:-3] + ["a", "0", ""], "non-numeric value 'a' in "
                                                "column 'action' at data row 0"),
            (lambda r: r[:1] + ["1"] + r[2:], "duplicate step values for "
                                              "subject 'p1'")]:
        row = edit(lines[1].split(","))
        path.write_text("\n".join([lines[0], ",".join(row)] + lines[2:])
                        + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=message):
            load_cohort(path)
    header = lines[0].split(",")
    path.write_text("\n".join([",".join(header[:-3] + header[-2:])]
                               + lines[1:]) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match="missing column 'action'"):
        load_cohort(path)
    path.write_text("\n".join(
        [",".join(header[:2] + header[3:]), *lines[1:]]) + "\n",
        encoding="utf-8")
    with pytest.raises(ValueError, match="expected 46 feature columns, "
                                         "found 45"):
        load_cohort(path)


def test_load_cohort_rejects_multiple_terminals(tmp_path, rng):
    cohort = Cohort((make_episode(rng, 3),),
                    tuple(f"f_{i}" for i in range(N_FEATURES)))
    path = tmp_path / "c.csv"
    export_cohort(cohort, path)
    text = path.read_text(encoding="utf-8").splitlines()
    # mark the first data row terminal too, with an outcome
    row = text[1].split(",")
    row[-2], row[-1] = "1", "0"
    text[1] = ",".join(row)
    path.write_text("\n".join(text) + "\n", encoding="utf-8")
    with pytest.raises(ValueError, match="exactly one terminal"):
        load_cohort(path)


def test_normalization_hand_example():
    states = np.zeros((4, N_FEATURES))
    states[:, 0] = [1.0, 2.0, 3.0, 4.0]
    cohort = Cohort((PatientEpisode("a", states, np.zeros(4, dtype=int),
                                    Outcome.RELEASE),),
                    tuple(f"f_{i}" for i in range(N_FEATURES)))
    stats = compute_normalization(cohort)
    assert stats.mean[0] == 2.5
    np.testing.assert_allclose(stats.std[0], np.sqrt(1.25))
    assert stats.std[1] == 1.0  # constant column clamps to 1
    normed = stats.normalize(states)
    np.testing.assert_allclose(stats.denormalize(normed), states, atol=1e-12)


def test_split_cohort_disjoint_and_seeded(rng):
    episodes = tuple(make_episode(rng, subject=f"s{i}") for i in range(10))
    cohort = Cohort(episodes, tuple(f"f_{i}" for i in range(N_FEATURES)))
    a_train, a_val = split_cohort(cohort, 0.7, seed=5)
    b_train, b_val = split_cohort(cohort, 0.7, seed=5)
    assert [e.subject_id for e in a_train.episodes] == \
           [e.subject_id for e in b_train.episodes]
    ids_train = {e.subject_id for e in a_train.episodes}
    ids_val = {e.subject_id for e in a_val.episodes}
    assert not ids_train & ids_val
    assert len(ids_train) + len(ids_val) == 10
    c_train, _ = split_cohort(cohort, 0.7, seed=6)
    assert [e.subject_id for e in c_train.episodes] != \
           [e.subject_id for e in a_train.episodes]


def test_split_rejects_degenerate_fraction(rng):
    cohort = Cohort(tuple(make_episode(rng, subject=f"s{i}") for i in range(4)),
                    tuple(f"f_{i}" for i in range(N_FEATURES)))
    for bad in (0.0, 1.0, -0.1):
        with pytest.raises(ValueError):
            split_cohort(cohort, bad, seed=0)


def test_prepare_cohorts_refuses_double_normalization(raw_cohort):
    train, val, stats = prepare_cohorts(raw_cohort, 0.8, seed=1)
    assert train.normalization is not None
    with pytest.raises(ValueError):
        prepare_cohorts(train, 0.8, seed=1)
    # training half is standardized under its own stats
    states = train.all_states()
    np.testing.assert_allclose(states.mean(axis=0), 0.0, atol=1e-10)


def test_generator_deterministic():
    spec = SyntheticDynamicsSpec.default(seed=9)
    a = generate_synthetic_cohort(spec, 5)
    b = generate_synthetic_cohort(spec, 5)
    for ea, eb in zip(a.episodes, b.episodes):
        np.testing.assert_array_equal(ea.states, eb.states)
        np.testing.assert_array_equal(ea.actions, eb.actions)
        assert ea.outcome == eb.outcome


def test_generator_prefix_stability():
    # episode i must not depend on how many episodes follow it
    spec = SyntheticDynamicsSpec.default(seed=9)
    a = generate_synthetic_cohort(spec, 3)
    b = generate_synthetic_cohort(spec, 6)
    for ea, eb in zip(a.episodes, b.episodes[:3]):
        np.testing.assert_array_equal(ea.states, eb.states)


def test_generator_respects_max_len():
    spec = SyntheticDynamicsSpec.default(seed=3, max_len=6)
    cohort = generate_synthetic_cohort(spec, 30)
    assert max(e.length for e in cohort.episodes) <= 6


def test_hazard_bias_shortens_episodes():
    """Monte Carlo: raising the hazard bias must shorten average stays."""
    long_spec = SyntheticDynamicsSpec.default(seed=4, step_bias=-4.0)
    short_spec = SyntheticDynamicsSpec.default(seed=4, step_bias=-1.0)
    long_len = np.mean([e.length
                        for e in generate_synthetic_cohort(long_spec, 60).episodes])
    short_len = np.mean([e.length
                         for e in generate_synthetic_cohort(short_spec, 60).episodes])
    assert short_len < long_len


def test_policy_hook_receives_control():
    spec = SyntheticDynamicsSpec.default(seed=5)
    cohort = generate_synthetic_cohort(spec, 4, policy=lambda rng, h, t: 13)
    for e in cohort.episodes:
        assert (e.actions == 13).all()


def test_spec_rejects_unstable_drift():
    spec = SyntheticDynamicsSpec.default(seed=0)
    with pytest.raises(ValueError, match="spectral radius"):
        SyntheticDynamicsSpec(latent_dim=spec.latent_dim,
                              drift_matrix=np.eye(spec.latent_dim) * 1.5,
                              action_effects=spec.action_effects,
                              emission_matrix=spec.emission_matrix,
                              noise_scale=spec.noise_scale,
                              hazard_coeffs=spec.hazard_coeffs,
                              outcome_coeffs=spec.outcome_coeffs, seed=0)


def test_default_override_wins():
    spec = SyntheticDynamicsSpec.default(seed=0, hazard_coeffs=np.zeros(8))
    np.testing.assert_array_equal(spec.hazard_coeffs, np.zeros(8))


def test_schema_renames_columns(tmp_path, rng):
    cohort = Cohort((make_episode(rng, 2),),
                    tuple(f"f_{i}" for i in range(N_FEATURES)))
    path = tmp_path / "c.csv"
    export_cohort(cohort, path)
    text = path.read_text(encoding="utf-8")
    path.write_text(text.replace("subject_id", "patient"), encoding="utf-8")
    back = load_cohort(path, CsvSchema(subject_id="patient"))
    assert back.episodes[0].subject_id == "p1"


# ---- parse once: the cohort's binary sidecar -----------------------------------

def _assert_same_cohort(a, b):
    assert a.feature_names == b.feature_names
    assert a.normalization is None and b.normalization is None
    assert [ep.subject_id for ep in a.episodes] == [ep.subject_id for ep in b.episodes]
    for x, y in zip(a.episodes, b.episodes, strict=True):
        assert x.states.shape == y.states.shape and x.actions.shape == y.actions.shape
        assert x.states.dtype == y.states.dtype == np.float64
        assert x.actions.dtype == y.actions.dtype == np.int64
        np.testing.assert_array_equal(x.states.view(np.int64), y.states.view(np.int64))
        np.testing.assert_array_equal(x.actions, y.actions)
        assert x.outcome is y.outcome


def _parse_only(path, schema=None):
    """What a parse of the file gives, with no sidecar involved."""
    from sepsim.data import _parse_cohort

    return _parse_cohort(path.read_bytes(), schema or CsvSchema())


def _refuse_cohort_parse(monkeypatch):
    from sepsim import data

    def refuse(*args, **kwargs):
        raise AssertionError("parsed although the sidecar matches")

    monkeypatch.setattr(data, "_parse_cohort", refuse)


def _awkward_cohort(rng):
    """Quoted and odd subject ids, awkward floats, length-1 episodes."""
    subjects = ["p,1", 'q"2', " spaced ", "ü-3", "", "7"]
    episodes = []
    for i, subject in enumerate(subjects):
        states = rng.normal(size=(1 + 2 * i % 5, N_FEATURES)) * 10.0 ** rng.integers(
            -300, 300, size=(1 + 2 * i % 5, N_FEATURES))
        states[0, :4] = [0.1, -0.0, 5e-324, 1 / 3]
        episodes.append(PatientEpisode(subject, states,
                                       rng.integers(0, ACTION_COUNT, len(states)),
                                       Outcome(i % 2)))
    return Cohort(tuple(episodes), tuple(f"feat {i}" for i in range(N_FEATURES)))


def test_cohort_sidecar_hit_equals_parse(tmp_path, rng, monkeypatch):
    from sepsim.checkpoint import sidecar_path

    cohort = _awkward_cohort(rng)
    path = tmp_path / "cohort.csv"
    export_cohort(cohort, path)
    assert '"p,1"' in path.read_text(encoding="utf-8")
    first = load_cohort(path)
    assert sidecar_path(path).name == ".cohort.csv.sepsim-cache.npz"
    assert sidecar_path(path).is_file()
    _assert_same_cohort(first, _parse_only(path))
    _assert_same_cohort(first, cohort)
    _refuse_cohort_parse(monkeypatch)
    _assert_same_cohort(load_cohort(path), first)


def test_cohort_sidecar_under_custom_schema(tmp_path, rng, monkeypatch):
    cohort = _awkward_cohort(rng)
    path = tmp_path / "c.csv"
    export_cohort(cohort, path)
    text = path.read_text(encoding="utf-8")
    path.write_text(text.replace("subject_id", "patient", 1), encoding="utf-8")
    reversed_schema = CsvSchema(subject_id="patient",
                                features=tuple(reversed(cohort.feature_names)))
    plain = load_cohort(path, CsvSchema(subject_id="patient"))
    flipped = load_cohort(path, reversed_schema)     # another schema: a parse
    _assert_same_cohort(flipped, _parse_only(path, reversed_schema))
    np.testing.assert_array_equal(flipped.episodes[0].states,
                                  plain.episodes[0].states[:, ::-1])
    _refuse_cohort_parse(monkeypatch)
    _assert_same_cohort(load_cohort(path, reversed_schema), flipped)


def test_cohort_sidecar_episodes_own_their_arrays(tmp_path, rng, monkeypatch):
    path = tmp_path / "c.csv"
    export_cohort(_awkward_cohort(rng), path)
    loads = [load_cohort(path)]
    _refuse_cohort_parse(monkeypatch)
    loads.append(load_cohort(path))
    for cohort in loads:
        for ep in cohort.episodes:
            assert ep.states.flags.owndata and ep.actions.flags.owndata
            assert ep.states.flags.c_contiguous


def _spoil_cohort(kind, path):
    from sepsim.checkpoint import sidecar_path

    sidecar = sidecar_path(path)
    if kind == "one_byte_edit":
        text = path.read_text(encoding="utf-8")
        at = text.index(".", text.index("\n")) + 1
        path.write_text(text[:at] + ("1" if text[at] != "1" else "2") + text[at + 1:],
                        encoding="utf-8")
    elif kind == "truncated":
        sidecar.write_bytes(sidecar.read_bytes()[:-100])
    elif kind == "garbage":
        sidecar.write_bytes(b"\x93NUMPY garbage" * 50)
    elif kind == "wrong_key":
        other = path.with_name("other.csv")
        export_cohort(generate_synthetic_cohort(SyntheticDynamicsSpec.default(seed=3), 2),
                      other)
        load_cohort(other)
        sidecar_path(other).replace(sidecar)
    elif kind == "pickle":
        import pickle  # the sidecar reader must refuse this

        sidecar.write_bytes(pickle.dumps({"key": "x"}))
    elif kind == "length_mismatch":
        sidecar.write_bytes(sidecar.read_bytes() + bytes(8))
    else:
        # a dtype in the header that is not float64 or int64: numpy's name
        # of the object dtype, or int32 over the same bytes
        data = sidecar.read_bytes()
        start = data.index(b"\n") + 1
        header = json.loads(data[:start])
        spec = {"object_array": ["|O", [1, N_FEATURES]],
                "other_dtype": ["<i4", [2 * header["arrays"][1][1][0]]]}[kind]
        index = 0 if kind == "object_array" else 1
        header["arrays"][index] = spec
        sidecar.write_bytes(json.dumps(header).encode() + b"\n" + data[start:])


@pytest.mark.parametrize("kind", ["one_byte_edit", "truncated", "garbage",
                                  "wrong_key", "object_array", "pickle",
                                  "length_mismatch", "other_dtype"])
def test_cohort_spoilt_sidecar_falls_back_to_parsing(tmp_path, rng, kind):
    path = tmp_path / "c.csv"
    export_cohort(_awkward_cohort(rng), path)
    load_cohort(path)
    _spoil_cohort(kind, path)
    _assert_same_cohort(load_cohort(path), _parse_only(path))


def test_cohort_failed_sidecar_write_still_returns_the_parse(tmp_path, rng,
                                                             monkeypatch):
    import os

    path = tmp_path / "c.csv"
    export_cohort(_awkward_cohort(rng), path)

    def fail(*args, **kwargs):
        raise PermissionError("read-only directory")

    monkeypatch.setattr(os, "replace", fail)
    _assert_same_cohort(load_cohort(path), _parse_only(path))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.csv"]


def test_cohort_failed_parse_keeps_its_message_and_leaves_no_sidecar(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("subject_id,step\n", encoding="utf-8")
    with pytest.raises(ValueError, match="missing column 'action'"):
        load_cohort(path)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.csv"]


def test_cohort_sidecar_of_a_header_only_file(tmp_path, monkeypatch):
    path = tmp_path / "c.csv"
    export_cohort(Cohort((), default_feature_names()), path)
    assert load_cohort(path).n_episodes == 0
    _refuse_cohort_parse(monkeypatch)
    again = load_cohort(path)
    assert again.n_episodes == 0 and again.feature_names == default_feature_names()
