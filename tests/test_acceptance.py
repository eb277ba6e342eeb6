"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line with its measured quantities (run
with ``-s`` to see them live).  Criteria 3-5 train small models from
scratch, so this module takes a few minutes of CPU; everything else is
sub-second.
"""

import json
import time

import numpy as np
import pytest

from flowcond import (
    ConditionBundle,
    GuidanceConfig,
    LrSchedule,
    ModelConfig,
    OptimizerState,
    PathConfig,
    VectorFieldModel,
    assemble_prompt,
    build_example,
    conditional_vector_field,
    guided_field,
    init_params,
    integrate_batch,
    load_checkpoint,
    make_field_fn,
    sample_mask,
    save_checkpoint,
    train_step,
)
from flowcond.cli import main as cli_main
from flowcond.curate import emotion_gate, quality_gate, run_pipeline
from flowcond.features import (
    DatasetRecord,
    FeatureMatrix,
    load_feature_matrix,
    read_manifest,
    store_feature_matrix,
    synth_condition_oracle,
    synth_phonemes,
    write_manifest,
)
from flowcond.metrics import aggregate_seeds, aro_val_sim, frame_cosine_sim
from flowcond.training import Corpus, TrainSettings, train_loop
from flowcond.seqmodel import (
    BatchInputs,
    masked_batch_loss_grad,
    param_names,
)

SIGMA_MIN = 1e-5
PATH_CFG = PathConfig(sigma_min=SIGMA_MIN)

T_FRAMES, F_DIM, N_PHN = 48, 8, 16
DESK = ModelConfig(
    n_layers=2, n_heads=2, d_model=64, d_ffn=128, d_phn=8,
    n_phonemes=N_PHN, feature_dim=F_DIM,
)


def report(criterion, detail):
    print(f"PASS criterion {criterion}: {detail}")


def blank_prompt(f, t):
    """Every condition blank and every frame masked: the unconditional task."""
    return ConditionBundle(
        phonemes=np.zeros(t, dtype=np.int64),
        nv=np.zeros((32, t)),
        emo=np.zeros((2, t)),
        context=np.zeros((f, t)),
        mask=np.ones(t, dtype=np.uint8),
    )


def oracle_corpus(kind, n, seed, T=T_FRAMES):
    streams = np.random.SeedSequence(seed).spawn(n)
    kinds = ("constant", "ramp", "step", "sinusoid")
    out = []
    for i in range(n):
        rng = np.random.default_rng(streams[i])
        k = kind if kind != "mixed" else kinds[i % 4]
        emo, nv, feats = synth_condition_oracle(k, T, rng, feature_dim=F_DIM)
        out.append((feats, synth_phonemes(T, rng, N_PHN), nv, emo))
    return Corpus(*(np.stack(stream) for stream in zip(*out)))


def train_on_corpus(corpus, steps, seed):
    settings = TrainSettings(steps=steps, batch_frames=12 * T_FRAMES, peak_lr=2e-3,
                             warmup_steps=100, sigma_min=SIGMA_MIN, p_drop=0.2, seed=seed)
    params, _, _ = train_loop(DESK, [corpus], [1.0], settings)
    return VectorFieldModel(DESK), params


@pytest.fixture(scope="module")
def sinusoid_model():
    corpus = oracle_corpus("sinusoid", 200, seed=100)
    t0 = time.perf_counter()
    model, params = train_on_corpus(corpus, steps=2000, seed=1)
    return model, params, time.perf_counter() - t0


@pytest.fixture(scope="module")
def mixed_model():
    corpus = oracle_corpus("mixed", 600, seed=300)
    t0 = time.perf_counter()
    model, params = train_on_corpus(corpus, steps=3000, seed=2)
    return model, params, time.perf_counter() - t0


# -- criterion 1: analytic-path exactness ---------------------------------------


def test_criterion_1_analytic_path_exactness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    worst = 0.0

    # raw Euler loops over random endpoint pairs
    for _ in range(5):
        x0 = rng.standard_normal((6, 10))
        x1 = rng.standard_normal((6, 10))
        target = x1 + SIGMA_MIN * x0
        for nfe in (1, 4, 32):
            x = x0.copy()
            h = 1.0 / nfe
            for k in range(nfe):
                x = x + h * conditional_vector_field(x, x1, k * h, PATH_CFG)
            worst = max(worst, float(np.max(np.abs(x - target))))

    # the same exactness through the sampler's integrate_batch()
    x1 = rng.standard_normal((F_DIM, 12))

    def field(inputs):
        x, t = inputs.x_t, inputs.t[0]
        return np.stack(
            [conditional_vector_field(x[i], x1, t, PATH_CFG) for i in range(x.shape[0])]
        )

    prompt = blank_prompt(F_DIM, 12)
    for nfe in (1, 4, 32):
        seed_rng = np.random.default_rng(50)
        out = integrate_batch(field, [prompt], GuidanceConfig(strength=0.0, nfe=nfe), seed_rng)[0]
        x0 = np.random.default_rng(50).standard_normal((1, F_DIM, 12))[0]
        worst = max(worst, float(np.max(np.abs(out - (x1 + SIGMA_MIN * x0)))))

    elapsed = time.perf_counter() - t0
    assert worst < 1e-10
    assert elapsed < 1.0
    report(1, f"Euler endpoint error {worst:.2e} < 1e-10 at nfe 1/4/32 ({elapsed:.2f}s)")


# -- criterion 2: gradient correctness -------------------------------------------


def test_criterion_2_gradient_correctness():
    t0 = time.perf_counter()
    cfg = ModelConfig(
        n_layers=2, n_heads=2, d_model=16, d_ffn=24, d_phn=4,
        n_phonemes=6, feature_dim=3,
    )
    model = VectorFieldModel(cfg)
    rng = np.random.default_rng(3)
    params = init_params(cfg, rng, zero_output=False)

    B, T = 2, 5
    conds = []
    for _ in range(B):
        bits = np.zeros(T, dtype=np.uint8)
        bits[1:4] = 1
        conds.append(
            ConditionBundle(
                phonemes=rng.integers(0, cfg.n_phonemes, T),
                nv=rng.standard_normal((32, T)) * 0.3,
                emo=rng.uniform(-0.5, 0.5, (2, T)),
                context=rng.standard_normal((3, T)),
                mask=bits,
            )
        )
    inputs = BatchInputs.from_examples(
        [rng.standard_normal((3, T)) for _ in range(B)], rng.uniform(0, 1, B), conds
    )
    u_target = rng.standard_normal((B, 3, T))

    def kind_of(name):
        if name == "phn_emb":
            return "embedding"
        if name.startswith("in_"):
            return "input_proj"
        if name.startswith("out_ln") or "ln1" in name or "ln2" in name:
            return "layernorm"
        if name.startswith("out_"):
            return "output_proj"
        if "ffn" in name:
            return "ffn"
        return "attention"

    def loss_fn():
        v, _ = model.forward_batch(inputs, params)
        loss, _ = masked_batch_loss_grad(v, u_target, inputs.mask_bits)
        return loss

    v, cache = model.forward_batch(inputs, params, want_cache=True)
    _, dv = masked_batch_loss_grad(v, u_target, inputs.mask_bits)
    grads = model.backward_batch(dv, cache, params)

    by_kind: dict[str, list[str]] = {}
    for name in param_names(cfg):
        by_kind.setdefault(kind_of(name), []).append(name)

    h = 1e-4
    coord_rng = np.random.default_rng(11)
    worst_by_kind = {}
    for kind, names in by_kind.items():
        errs = []
        i = 0
        while len(errs) < 20:
            name = names[i % len(names)]
            i += 1
            g = grads[name]
            idx = tuple(int(coord_rng.integers(0, s)) for s in g.shape)
            orig = params[name][idx]
            params[name][idx] = orig + h
            lp = loss_fn()
            params[name][idx] = orig - h
            lm = loss_fn()
            params[name][idx] = orig
            fd = (lp - lm) / (2 * h)
            errs.append(abs(fd - g[idx]) / max(abs(fd), abs(g[idx]), 1e-6))
        worst_by_kind[kind] = max(errs)

    elapsed = time.perf_counter() - t0
    bad = {k: v for k, v in worst_by_kind.items() if v >= 1e-4}
    assert not bad, f"finite-difference mismatch: {bad}"
    assert elapsed < 60.0
    worst = max(worst_by_kind.values())
    report(
        2,
        f"20 coords x {len(worst_by_kind)} tensor kinds, worst rel err "
        f"{worst:.2e} < 1e-4 ({elapsed:.1f}s)",
    )


# -- criterion 3: Gaussian recovery ------------------------------------------------


def test_criterion_3_gaussian_recovery():
    t0 = time.perf_counter()
    mu = np.array([1.0, -1.0])
    std = np.array([0.5, 1.0])
    cfg = ModelConfig(
        n_layers=2, n_heads=2, d_model=64, d_ffn=128, d_phn=4,
        n_phonemes=4, feature_dim=2,
    )
    model = VectorFieldModel(cfg)
    rng = np.random.default_rng(0)
    params = init_params(cfg, rng)

    steps, B = 4000, 128
    state = OptimizerState(
        schedule=LrSchedule(peak=2e-3, warmup_steps=200, total_steps=steps)
    )
    blank = dict(
        tokens=np.zeros((B, 1), dtype=np.int64),
        nv=np.zeros((B, 32, 1)),
        emo=np.zeros((B, 2, 1)),
        context=np.zeros((B, 2, 1)),
        mask_bits=np.ones((B, 1)),
    )
    for _ in range(steps):
        x1 = mu[None, :, None] + std[None, :, None] * rng.standard_normal((B, 2, 1))
        x0 = rng.standard_normal((B, 2, 1))
        ts = rng.uniform(0, 1, B)
        x_t = ts[:, None, None] * x1 + (1 - (1 - SIGMA_MIN) * ts)[:, None, None] * x0
        u = x1 - (1 - SIGMA_MIN) * x0
        params, _, _ = train_step(model, BatchInputs(x_t=x_t, t=ts, **blank), u, params, state)
    assert state.step == steps <= 20_000

    field = make_field_fn(model, params)
    prompt = blank_prompt(2, 1)
    sample_rng = np.random.default_rng(123)
    outs = []
    for _ in range(4):
        outs.extend(
            integrate_batch(
                field, [prompt] * 2500, GuidanceConfig(strength=0.0, nfe=32), sample_rng
            )
        )
    samples = np.array([o[:, 0] for o in outs])
    assert samples.shape == (10_000, 2)

    mean_err = np.abs(samples.mean(axis=0) - mu)
    var_rel_err = np.abs(samples.var(axis=0) - std**2) / std**2
    elapsed = time.perf_counter() - t0
    assert np.all(mean_err < 0.05), f"mean error {mean_err}"
    assert np.all(var_rel_err < 0.10), f"variance relative error {var_rel_err}"
    assert elapsed < 300.0
    report(
        3,
        f"10^4 samples at nfe=32: mean err {mean_err.round(4)} < 0.05, "
        f"var rel err {var_rel_err.round(4)} < 0.10 ({elapsed:.0f}s)",
    )


# -- criterion 4: infilling skill ----------------------------------------------------


def test_criterion_4_infilling_beats_mean_baseline(sinusoid_model):
    model, params, train_time = sinusoid_model
    t0 = time.perf_counter()
    field = make_field_fn(model, params)
    held = oracle_corpus("sinusoid", 100, seed=200)

    rng = np.random.default_rng(999)
    prompts, truths, spans = [], [], []
    for feats, phn, nv, emo in held:
        mask = sample_mask(1, T_FRAMES, rng, (0.5, 0.5))[0]
        start = int(np.argmax(mask))
        end = start + int(mask.sum())
        prompts.append(build_example(feats, phn, nv, emo, mask))
        truths.append(feats)
        spans.append((start, end))

    # batch prompts that share a masked span
    groups: dict[tuple[int, int], list[int]] = {}
    for i, span in enumerate(spans):
        groups.setdefault(span, []).append(i)
    outs = [None] * len(prompts)
    gen_rng = np.random.default_rng(5)
    gcfg = GuidanceConfig(strength=1.0, nfe=32)
    for idxs in groups.values():
        for i, out in zip(idxs, integrate_batch(field, [prompts[i] for i in idxs], gcfg, gen_rng)):
            outs[i] = out

    model_rmse, base_rmse = [], []
    for out, feats, (start, end) in zip(outs, truths, spans):
        truth = feats[:, start:end]
        model_rmse.append(np.sqrt(np.mean((out - truth) ** 2)))
        visible = np.concatenate([feats[:, :start], feats[:, end:]], axis=1)
        base = visible.mean(axis=1, keepdims=True)
        base_rmse.append(np.sqrt(np.mean((base - truth) ** 2)))
    ratio = float(np.mean(model_rmse) / np.mean(base_rmse))
    elapsed = train_time + time.perf_counter() - t0
    assert ratio <= 0.5, f"RMSE ratio {ratio}"
    assert elapsed < 600.0
    report(
        4,
        f"masked-region RMSE {np.mean(model_rmse):.4f} vs mean-baseline "
        f"{np.mean(base_rmse):.4f}, ratio {ratio:.3f} <= 0.5 over 100 held-out ({elapsed:.0f}s)",
    )


# -- criterion 5: conditioning faithfulness --------------------------------------------


def test_criterion_5_amplitude_tracks_arousal(mixed_model):
    model, params, train_time = mixed_model
    t0 = time.perf_counter()
    field = make_field_fn(model, params)

    # 50 prompts with fresh arousal trajectories, cycling through kinds so
    # step changes are included; prompt length stays within the trained T
    t_spk, t_text = 16, 32
    held = oracle_corpus("mixed", 50, seed=400)
    kinds = ("step", "ramp", "sinusoid", "constant")
    prompts, targets = [], []
    for i, (feats, phn, nv, emo) in enumerate(held):
        traj_rng = np.random.default_rng(1000 + i)
        emo_t, _, _ = synth_condition_oracle(
            kinds[i % 4], t_text, traj_rng, feature_dim=F_DIM, with_nv=False
        )
        prompts.append(
            assemble_prompt(
                spk_features=feats[:, :t_spk],
                spk_phonemes=phn[:t_spk],
                spk_nv=nv[:, :t_spk],
                spk_emo=emo[:, :t_spk],
                text_phonemes=synth_phonemes(t_text, traj_rng, N_PHN),
                nv_prompt=np.zeros((32, t_text)),
                emo_prompt=emo_t,
            )
        )
        targets.append(1.0 + emo_t[0])

    outs = integrate_batch(
        field, prompts, GuidanceConfig(strength=1.0, nfe=32), np.random.default_rng(9)
    )
    amplitudes = np.concatenate([np.linalg.norm(o, axis=0) for o in outs])
    wanted = np.concatenate(targets)
    r = float(np.corrcoef(amplitudes, wanted)[0, 1])
    elapsed = train_time + time.perf_counter() - t0
    assert r > 0.8, f"Pearson r {r}"
    assert elapsed < 600.0
    report(
        5,
        f"generated amplitude vs conditioned arousal: Pearson r {r:.4f} > 0.8 "
        f"over 50 prompts incl. step changes ({elapsed:.0f}s)",
    )


# -- criterion 6: CFG sanity ---------------------------------------------------------


def test_criterion_6_cfg_sanity():
    rng = np.random.default_rng(6)
    v_cond = rng.standard_normal((5, 9))
    v_uncond = rng.standard_normal((5, 9))
    assert np.array_equal(guided_field(v_cond, v_uncond, 0.0), v_cond)

    calls = {"n": 0}

    def counting_field(inputs):
        calls["n"] += 1
        return np.zeros_like(inputs.x_t)

    prompt = blank_prompt(3, 6)
    integrate_batch(
        counting_field, [prompt], GuidanceConfig(strength=1.0, nfe=32), np.random.default_rng(0)
    )
    assert calls["n"] == 64
    report(6, "guided_field(.,.,0) bitwise-equal to conditional field; 64 evals at nfe=32 w=1")


# -- criterion 7: curation oracle equivalence -------------------------------------------


def test_criterion_7_curation_oracle_equivalence(tmp_path):
    t0 = time.perf_counter()
    rng = np.random.default_rng(31)
    labels = ["angry", "disgusted", "fearful", "sad", "surprised", "neutral", "happy"]
    records = []
    for i in range(1000):
        records.append(
            DatasetRecord(
                id=f"r{i:04d}",
                features_path=f"r{i}.fmat",
                phonemes_path=f"r{i}.phn",
                nv_path=f"r{i}.nv.fmat",
                emo_path=f"r{i}.emo.fmat",
                duration_s=1.0,
                emotion_label=labels[int(rng.integers(len(labels)))],
                emotion_confidence=float(rng.choice([0.0, 0.3, 0.7, 0.999, 1.0])),
                ovlr=float(rng.choice([1.0, 2.9, 3.0, 3.0001, 4.2, 5.0])),
                speaker_change=bool(rng.uniform() < 0.2),
            )
        )
    src, dst = tmp_path / "in.jsonl", tmp_path / "out.jsonl"
    write_manifest(records, src)
    rep = run_pipeline(src, dst)

    keep_any = {"angry", "disgusted", "fearful", "sad", "surprised"}
    expected = [
        r
        for r in records
        if (r.emotion_label in keep_any or (r.emotion_label in {"neutral", "happy"} and r.emotion_confidence >= 1.0))
        and r.ovlr > 3.0
        and not r.speaker_change
    ]
    got = [rec for _, rec in read_manifest(dst)]
    assert got == expected
    assert rep.total == 1000
    assert rep.retained + rep.emotion_gate + rep.quality_gate + rep.speaker_gate == 1000

    assert not quality_gate(3.0, 3.0)  # boundary: strictly greater than
    assert emotion_gate("neutral", 1.0)  # boundary: full confidence keeps

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    report(
        7,
        f"1000-record pipeline == brute-force filter ({rep.retained} retained), "
        f"reason counts conserve, boundaries OVLR=3.0 drop / conf=1.0 keep ({elapsed:.2f}s)",
    )


# -- criterion 8: metric identities ------------------------------------------------------


def test_criterion_8_metric_identities():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((16, 64))
    self_sim = frame_cosine_sim(a, a)
    assert abs(self_sim - 1.0) < 1e-9

    x = np.tile([[0.3], [0.4]], (1, 5))
    y = np.tile([[0.3], [-0.4]], (1, 5))
    hand = aro_val_sim(x, y)
    assert abs(hand - (-0.28)) < 1e-9

    e1 = rng.standard_normal((16, 1000))
    e2 = rng.standard_normal((16, 1000))
    random_sim = frame_cosine_sim(e1, e2)
    assert abs(random_sim) < 0.05

    rep = aggregate_seeds({"a": [0.4], "b": [0.6]})
    expected_std = np.sqrt(((0.4 - 0.5) ** 2 + (0.6 - 0.5) ** 2) / 2)
    assert rep.mean == 0.5
    assert rep.std == expected_std
    rep3 = aggregate_seeds({"s1": [0.6, 0.6], "s2": [0.6, 0.6], "s3": [0.6, 0.6]})
    assert rep3.mean == pytest.approx(0.6, abs=1e-15) and rep3.std == 0.0

    report(
        8,
        f"self-sim {self_sim:.10f}; hand case {hand:.4f} = -0.28; random |{random_sim:.4f}| < 0.05; "
        f"seed aggregation exact",
    )


# -- criterion 9: determinism and round-trips ----------------------------------------------


def test_criterion_9_determinism_and_round_trips(tmp_path):
    # synth: byte-identical directories for the same seed
    for name in ("a", "b"):
        assert cli_main(
            ["synth", "--kind", "mixed", "--count", "6", "--frames", "24",
             "--seed", "13", "--out", str(tmp_path / name)]
        ) == 0
    files_a = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert files_a == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in files_a:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    # train: byte-identical checkpoint and loss log for the same seed
    for run in ("r1", "r2"):
        assert cli_main(
            ["train", "--manifest", str(tmp_path / "a" / "manifest.jsonl"),
             "--steps", "10", "--batch-frames", "48", "--seed", "3",
             "--out", str(tmp_path / run)]
        ) == 0
    assert (tmp_path / "r1" / "checkpoint.fmck").read_bytes() == (
        tmp_path / "r2" / "checkpoint.fmck"
    ).read_bytes()
    assert (tmp_path / "r1" / "loss_log.txt").read_text() == (
        tmp_path / "r2" / "loss_log.txt"
    ).read_text()

    # sample: byte-identical output for the same seed
    for out in ("g1.fmat", "g2.fmat"):
        assert cli_main(
            ["sample", "--checkpoint", str(tmp_path / "r1" / "checkpoint.fmck"),
             "--text-phonemes", str(tmp_path / "a" / "mixed_00001.phn"),
             "--zero-nv", "--zero-emo", "--nfe", "8", "--seed", "21",
             "--out", str(tmp_path / out)]
        ) == 0
    assert (tmp_path / "g1.fmat").read_bytes() == (tmp_path / "g2.fmat").read_bytes()

    # FMAT file round-trips bitwise
    rng = np.random.default_rng(2)
    mat = FeatureMatrix(rng.standard_normal((8, 50)).astype(np.float32), 100.0)
    f1, f2 = tmp_path / "m1.fmat", tmp_path / "m2.fmat"
    store_feature_matrix(mat, f1)
    loaded = load_feature_matrix(f1)
    assert np.array_equal(loaded.values, mat.values)
    store_feature_matrix(loaded, f2)
    assert f1.read_bytes() == f2.read_bytes()

    # checkpoint round-trips bitwise
    ck1 = tmp_path / "r1" / "checkpoint.fmck"
    cfg, params = load_checkpoint(ck1)
    ck2 = tmp_path / "ck2.fmck"
    save_checkpoint(ck2, cfg, params)
    assert ck1.read_bytes() == ck2.read_bytes()

    # sidecar provenance records the defaults
    sidecar = json.loads((tmp_path / "g1.fmat.json").read_text())
    assert sidecar["seed"] == 21 and sidecar["nfe"] == 8

    report(9, "synth/train/sample byte-identical under fixed seed; FMAT and checkpoint round-trip bitwise")
