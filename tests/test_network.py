import dataclasses
import hashlib
import math
import weakref

import numpy as np
import pytest

from vidmotion import adapter as AD
from vidmotion import attention as A
from vidmotion import diffusion as D
from vidmotion import injection as I
from vidmotion import network as N
from vidmotion import pipeline as P
from vidmotion import tensor as T
from vidmotion.gradcheck import directional_check


def rnd(shape, seed=0, scale=1.0):
    return np.random.default_rng(seed).normal(0, scale, shape).astype(np.float32)


CFG = N.NetConfig()


def named_digest(named):
    digest = hashlib.sha256()
    for name in sorted(named):
        digest.update(name.encode())
        digest.update(named[name].data.tobytes())
    return digest.hexdigest()


def zero_control(model):
    """``model`` with its ControlNet output projections zeroed."""
    return model.replace({n: T.zeros(w.shape) for n, w in model.params.items()
                          if n.startswith("control.zero.")})


def controlled(model, z, t, pose):
    """A StepContext that hands a forward on ``z`` at ``t`` its control sides."""
    sides = N.control_sides(model, z, t, pose)
    return N.StepContext(t, z, lambda: sides)


@pytest.fixture(scope="module")
def model():
    return N.init_model(CFG, seed=7)


@pytest.fixture(scope="module")
def latent():
    return T.Tensor(rnd((CFG.frames, CFG.channels, 8, 8), seed=1, scale=0.5))


def skeleton_stack(seed=2):
    return (np.random.default_rng(seed).uniform(size=(CFG.frames, 32, 32)) > 0.9
            ).astype(np.float32) * 255.0


def mask_pyramid(seed=3):
    masks = (np.random.default_rng(seed).uniform(size=(CFG.frames, 32, 32)) > 0.5
             ).astype(np.float32)
    return I.LatentMask.from_rasters(masks, CFG.level_shapes())


def mixed_mask_pyramid(seed=4):
    """Random masks, except frame 2 is all foreground and frame 5 all
    background."""
    masks = (np.random.default_rng(seed).uniform(size=(CFG.frames, 32, 32)) > 0.5
             ).astype(np.float32)
    masks[2] = 1.0
    masks[5] = 0.0
    return I.LatentMask.from_rasters(masks, CFG.level_shapes())


def frame_shifted(x):
    """Each frame's preceding frame's tokens, frame 0 its own."""
    return T.concat([T.slice_axis(x, 0, 0, 1), T.slice_axis(x, 0, 0, x.shape[0] - 1)],
                    axis=0)


def sub_block(x, model, lid, proj, over, kv=None):
    """U-Net block ``lid``'s sub-block with projections ``proj``."""
    return N._sub_block(x, model, f"unet.{lid}", f"ln_{proj}", proj, over, kv)


def per_frame_cs_edit(x, model, lid, t, cache, masks, drop):
    """Reference: the editing branch's cross-frame sub-block, one frame at a
    time, each frame's injected stack built and attended on its own."""
    level = N.BLOCK_LEVEL[lid]
    pset = model.pset(f"unet.{lid}.cs")
    a_in = T.layer_norm(x, *model.ln(f"unet.{lid}.ln_cs"))
    frames, n, d = a_in.shape
    q = T.matmul(a_in, pset.w_q)
    kv_in = T.concat([frame_shifted(a_in), a_in], axis=1)
    k = T.matmul(kv_in, pset.w_k)
    v = T.matmul(kv_in, pset.w_v)
    k_r, v_r = cache.get("cs", lid, t)
    outs = []
    for i in range(frames):
        mask2n = masks.cs_mask(level)[i]
        k_i = T.reshape(T.slice_axis(k, 0, i, i + 1), (2 * n, d))
        v_i = T.reshape(T.slice_axis(v, 0, i, i + 1), (2 * n, d))
        cur = (T.slice_axis(k_i, 0, n, 2 * n), T.slice_axis(v_i, 0, n, 2 * n))
        if drop:  # the kept rows: foreground, then background, in token order
            fg = mask2n.astype(bool)
            kept = [T.Tensor(np.concatenate([r.data[i][fg], r.data[i][~fg]]))
                    for r in (k_r, v_r)]
            k_inj, v_inj = (T.concat([b, c], axis=0) for b, c in zip(kept, cur))
        else:
            recon = I.decouple_kv(T.Tensor(k_r.data[i]), T.Tensor(v_r.data[i]),
                                  mask2n)
            k_inj, v_inj = I.build_injected_kv(recon, cur)
        q_i = T.reshape(T.slice_axis(q, 0, i, i + 1), (n, d))
        outs.append(T.reshape(A.attend(q_i, k_inj, v_inj), (1, n, d)))
    return T.matmul(T.concat(outs, axis=0), pset.w_out)


def block_hooks(role, lid, cache, masks=None, inj=None):
    """(cross-frame, temporal) key/value hooks of block ``lid`` at t = 21."""
    return I.kv_hooks(role, lid, 21, N.TOPOLOGY, N.BLOCK_LEVEL[lid], cache, masks,
                      inj or I.InjectionSettings())


@pytest.mark.parametrize("drop", [False, True], ids=["5n", "drop"])
@pytest.mark.parametrize("lid", ["dec0", "mid"])
def test_batched_cs_injection_equals_per_frame_reference(model, lid, drop):
    level = N.BLOCK_LEVEL[lid]
    shape = (CFG.frames, math.prod(CFG.level_hw(level)), CFG.widths[level])
    inj = I.InjectionSettings(inject_mid=True, drop_masked_tokens=drop)
    assert I.gate(lid, N.TOPOLOGY, inj.inject_mid)
    cache = I.ReconCache()
    recon_cs, _ = block_hooks("recon", lid, cache, inj=inj)
    sub_block(T.Tensor(rnd(shape, seed=70)), model, lid, "cs", "frames", recon_cs)
    masks = mixed_mask_pyramid()
    x = T.Tensor(rnd(shape, seed=71))
    edit_cs, _ = block_hooks("edit", lid, cache, masks, inj)
    got = sub_block(x, model, lid, "cs", "tokens", edit_cs)
    want = per_frame_cs_edit(x, model, lid, 21, cache, masks, drop)
    np.testing.assert_array_equal(got.data, want.data)
    assert cache.reads["cs"] == 2


@pytest.mark.parametrize("drop", [False, True], ids=["5n", "drop"])
def test_edit_forward_injects_each_gated_layer_as_the_per_frame_reference(
        model, latent, drop, monkeypatch):
    t = 21
    inj = I.InjectionSettings(inject_mid=True, drop_masked_tokens=drop)
    cache = I.ReconCache()
    N.unet_forward(model, latent, t, "a figure walking", role="recon", cache=cache,
                   inj=inj)
    masks, seen, real = mixed_mask_pyramid(), {}, N._sub_block

    def watched(x, m, pre, ln, proj, *rest):
        out = real(x, m, pre, ln, proj, *rest)
        if proj == "cs":
            seen[pre.split(".")[1]] = x, out
        return out
    monkeypatch.setattr(N, "_sub_block", watched)
    N.unet_forward(model, latent, t, "a figure marching", role="edit", cache=cache,
                   masks=masks, inj=inj)
    for lid in (lid for lid in N.BLOCK_ORDER if I.gate(lid, N.TOPOLOGY, True)):
        x, got = seen[lid]
        want = per_frame_cs_edit(x, model, lid, t, cache, masks, drop)
        np.testing.assert_array_equal(got.data, want.data)


@pytest.mark.parametrize("drop", [False, True], ids=["5n", "drop"])
def test_each_forward_builds_its_block_equal_to_per_frame_builds(model, drop,
                                                                  monkeypatch):
    # the cond and uncond forwards of one guided step build a block each
    lid, level = "dec0", N.BLOCK_LEVEL["dec0"]
    shape = (CFG.frames, math.prod(CFG.level_hw(level)), CFG.widths[level])
    inj = I.InjectionSettings(drop_masked_tokens=drop)
    cache = I.ReconCache()
    recon_cs, _ = block_hooks("recon", lid, cache, inj=inj)
    sub_block(T.Tensor(rnd(shape, seed=72)), model, lid, "cs", "frames", recon_cs)
    masks = mixed_mask_pyramid()
    xs = [T.Tensor(rnd(shape, seed=seed)) for seed in (73, 74)]
    # the per-frame references build their stacks before the count starts
    wants = [per_frame_cs_edit(x, model, lid, 21, cache, masks, drop) for x in xs]
    built = []
    build = I.CsMask.block
    monkeypatch.setattr(I.CsMask, "block",
                        lambda self, *args: built.append(lid) or build(self, *args))
    for x, want in zip(xs, wants):
        edit_cs, _ = I.kv_hooks("edit", lid, 21, N.TOPOLOGY, level, cache, masks,
                                inj)
        got = sub_block(x, model, lid, "cs", "tokens", edit_cs)
        np.testing.assert_array_equal(got.data, want.data)
    assert built == [lid, lid]
    assert cache.reads["cs"] == 4  # each forward and each reference reads


@pytest.mark.parametrize("prompt", ["a figure marching", "marching"])
def test_guided_step_shares_its_opening_and_control_but_not_blocks(model, latent,
                                                                   prompt,
                                                                   monkeypatch):
    t = 21
    cache = I.ReconCache()
    N.unet_forward(model, latent, t, "a figure walking", role="recon", cache=cache)
    pose = N.pose_features(model, skeleton_stack())
    masks, inj = mask_pyramid(), I.InjectionSettings()
    counts = {"blocks": 0, "control": 0, "in_proj": 0, "enc0_cs": 0}

    def counted(owner, name, key, when=lambda *args: True):
        real = getattr(owner, name)

        def wrapper(*args):
            counts[key] += when(*args)
            return real(*args)
        monkeypatch.setattr(owner, name, wrapper)

    counted(I.CsMask, "block", "blocks")
    counted(AD, "control_side", "control")
    counted(T, "matmul", "in_proj", lambda a, b: b is model.params["unet.in_proj"])
    counted(N, "_sub_block", "enc0_cs",
            lambda x, m, pre, ln, proj, *rest: (pre, proj) == ("unet.enc0", "cs"))
    eps = P._predictor(model, [t], prompt, 7.5, "edit", cache, masks, inj,
                       control=P._computed(model, pose)
                       )(latent, t)
    gated = [lid for lid in N.BLOCK_ORDER if I.gate(lid, N.TOPOLOGY)]
    # each injecting forward builds its own blocks; the rest is built once
    assert counts == {"blocks": 2 * len(gated), "control": len(N.CONTROLLED_LAYERS),
                      "in_proj": 1, "enc0_cs": 1}
    assert cache.reads == {"cs": 2 * len(gated), "temporal": 2 * len(gated)}
    # the same step with nothing shared: every forward builds its own
    eps_c, eps_u = (N.unet_forward(model, latent, t, text, role="edit", cache=cache,
                                   masks=masks, inj=inj,
                                   step=controlled(model, latent, t, pose))
                    for text in (prompt, None))
    assert counts == {"blocks": 4 * len(gated), "control": 3 * len(N.CONTROLLED_LAYERS),
                      "in_proj": 3, "enc0_cs": 3}
    np.testing.assert_array_equal(eps.data, D.cfg_combine(eps_u, eps_c, 7.5).data)


def test_guidance_zero_runs_only_the_uncond_forward(model, latent, monkeypatch):
    ts = [41, 21, 1]
    cache, masks, inj = I.ReconCache(), mask_pyramid(), I.InjectionSettings()
    real, calls = N.unet_forward, []
    monkeypatch.setattr(N, "unet_forward", lambda m, z, t, prompt, **kw:
                        calls.append((prompt, kw["role"])) or real(m, z, t, prompt, **kw))
    eps_fn = P._predictor(model, ts, "a figure marching", 0.0, "edit", cache, masks, inj)
    gated = [lid for lid in N.BLOCK_ORDER if I.gate(lid, N.TOPOLOGY)]
    reads = 0
    for t in ts:
        real(model, latent, t, "a figure walking", role="recon", cache=cache)
        calls.clear()
        before = cache.reads["cs"]
        eps = eps_fn(latent, t)
        assert calls == [(None, "edit")]
        reads += cache.reads["cs"] - before
        want = real(model, latent, t, None, role="edit", cache=cache, masks=masks, inj=inj)
        np.testing.assert_array_equal(eps.data, want.data)
    assert reads == len(ts) * len(gated)


@pytest.mark.parametrize("drop", [False, True], ids=["5n", "drop"])
def test_a_forwards_blocks_are_freed_before_its_step_ends(model, latent, drop,
                                                           monkeypatch):
    t = 21
    inj = I.InjectionSettings(inject_mid=True, drop_masked_tokens=drop)
    cache = I.ReconCache()
    N.unet_forward(model, latent, t, "a figure walking", role="recon", cache=cache,
                   inj=inj)
    pose = N.pose_features(model, skeleton_stack())
    masks = mask_pyramid()
    refs = []
    build = I.CsMask.block

    def watched(self, *args):
        block = build(self, *args)
        refs.extend(weakref.ref(piece.data) for pieces in block for piece in pieces)
        return block
    monkeypatch.setattr(I.CsMask, "block", watched)
    step = controlled(model, latent, t, pose)

    def forward(text):
        return N.unet_forward(model, latent, t, text, role="edit", cache=cache,
                              masks=masks, inj=inj, step=step)
    eps_c = forward("a figure marching")
    gated = [lid for lid in N.BLOCK_ORDER if I.gate(lid, N.TOPOLOGY, True)]
    assert len(refs) == len(gated) * (2 if drop else 4)
    assert all(ref() is None for ref in refs)  # the step is alive, its blocks not
    monkeypatch.undo()
    eps = P._predictor(model, [t], "a figure marching", 7.5, "edit", cache,
                       masks, inj,
                       control=P._computed(model, pose)
                       )(latent, t)
    want = D.cfg_combine(forward(None), eps_c, 7.5)
    np.testing.assert_array_equal(eps.data, want.data)


@pytest.mark.parametrize("pose", [None, "computed"])
def test_each_guided_step_builds_each_unet_time_row_once(model, latent, pose,
                                                         monkeypatch):
    projs = {id(w): name.rsplit(".", 1)[0] for name, w in model.params.items()
             if name.endswith(".time_proj")}
    built = []
    real = T.matmul

    def matmul(a, b):
        if id(b) in projs:
            built.append(projs[id(b)])
        return real(a, b)
    monkeypatch.setattr(T, "matmul", matmul)
    control = (None if pose is None else
               P._computed(model, N.pose_features(model, skeleton_stack())))
    eps_fn = P._predictor(model, [21], "a figure marching", 7.5, control=control)
    unet = [f"unet.{lid}" for lid in N.BLOCK_ORDER]
    controlnet = [] if pose is None else [f"control.{lid}" for lid in N.CONTROL_BLOCKS]
    for _ in range(2):  # a second step at the same t builds its own rows
        built.clear()
        eps_fn(latent, 21)
        assert sorted(pre for pre in built if pre.startswith("unet.")) == sorted(unet)
        assert [pre for pre in built if pre.startswith("control.")] == controlnet


def test_step_sides_reach_the_cond_and_uncond_output(model, latent):
    pose = N.pose_features(model, skeleton_stack())
    sides = N.control_sides(model, latent, 9, pose)
    step = N.StepContext(9, latent, lambda: sides)
    for prompt in ("p", None):  # the guided pair, in its order
        got = N.unet_forward(model, latent, 9, prompt, step=step)
        alone = N.unet_forward(model, latent, 9, prompt,
                               step=N.StepContext(9, latent, lambda: sides))
        np.testing.assert_array_equal(got.data, alone.data)
        plain = N.unet_forward(model, latent, 9, prompt)
        assert not np.array_equal(plain.data, got.data)


@pytest.mark.parametrize("prompt", [None, "", "marching"])
@pytest.mark.parametrize("lid", ["enc0", "mid"])
def test_one_token_cross_output_equals_the_sub_block(model, lid, prompt):
    level = N.BLOCK_LEVEL[lid]
    shape = (CFG.frames, math.prod(CFG.level_hw(level)), CFG.widths[level])
    fresh = N.ModelWeights(model.cfg, model.params)
    k, v, got = N._text(fresh, lid, prompt)
    assert N._text(fresh, lid, prompt)[2] is got
    for seed in (90, 91, 92):
        x = T.Tensor(rnd(shape, seed=seed, scale=3.0))
        want = sub_block(x, model, lid, "cross", "tokens", lambda src, p: (k, v))
        np.testing.assert_array_equal(got.data, want.data)


@pytest.mark.parametrize("prompt, shared", [(None, True), ("marching", True),
                                            ("a figure marching right", False)])
@pytest.mark.parametrize("weight", ["cross.w_q", "ln_cross.beta"])
def test_only_one_token_prompts_skip_the_text_sub_block(
        model, latent, prompt, shared, weight, monkeypatch):
    calls = []
    real = N._sub_block

    def counted(x, m, pre, ln, proj, *rest):
        if proj == "cross":
            calls.append(pre.split(".")[1])
        return real(x, m, pre, ln, proj, *rest)
    monkeypatch.setattr(N, "_sub_block", counted)
    fresh = N.ModelWeights(model.cfg, model.params)
    assert (N._text(fresh, "dec0", prompt)[2] is not None) == shared
    eps = N.unet_forward(fresh, latent, 9, prompt)
    assert calls == ([] if shared else list(N.BLOCK_ORDER))
    calls.clear()
    # a watched text weight in every block: each sub-block runs, for its gradient
    tape = T.Tape()
    watched = model.replace({n: tape.watch(model.params[n])
                             for n in (f"unet.{lid}.{weight}" for lid in N.BLOCK_ORDER)})
    assert N._text(watched, "dec0", prompt)[2] is None
    alone = N.unet_forward(watched, latent, 9, prompt)
    assert calls == list(N.BLOCK_ORDER)
    np.testing.assert_array_equal(eps.data, alone.data)


class TestTextMemo:
    def test_rows_are_built_once_and_equal_a_forward_without_them(self, model,
                                                                  latent):
        fresh = N.ModelWeights(model.cfg, model.params)
        assert N._text(fresh, "dec1", "p") is N._text(fresh, "dec1", "p")
        step = N.StepContext(9, latent)
        assert step.time_row(model, "mid") is step.time_row(model, "mid")
        pose = N.pose_features(model, skeleton_stack())
        for t in (9, 9, 400):
            feats = N.controlnet_forward(model, latent, t, pose)
            np.testing.assert_array_equal(
                feats["dec0"].data, N.controlnet_forward(model, latent, t, pose)["dec0"].data)
            shared = N.unet_forward(fresh, latent, t, "p",
                                    step=controlled(model, latent, t, pose))
            alone = N.unet_forward(N.ModelWeights(model.cfg, model.params), latent, t,
                                   "p", step=controlled(model, latent, t, pose))
            np.testing.assert_array_equal(shared.data, alone.data)

    def test_keeps_no_trainable_array_alive(self, latent):
        # a fresh model, so that nothing else holds its arrays
        fresh = N.init_model(CFG, seed=7)
        refs = {n: weakref.ref(fresh.params[n].data) for n in N.trainable_names(fresh)}
        eps = N.unet_forward(fresh, latent, 9, "p")
        trained = fresh.replace({n: T.Tensor(fresh.params[n].data.copy()) for n in refs})
        assert trained.text is fresh.text and trained.text
        del fresh
        assert [n for n, ref in refs.items() if ref() is not None] == []
        again = N.unet_forward(trained, latent, 9, "p")
        np.testing.assert_array_equal(eps.data, again.data)

    @pytest.mark.parametrize("name, shared", [
        ("adapter0.out_proj", True), ("unet.dec0.temporal.w_v", True),
        ("unet.dec0.cross.w_k", False), ("unet.enc0.ln_cross.gamma", False)])
    def test_replace_keeps_the_memo_unless_a_text_weight_changes(self, model,
                                                                 latent, name,
                                                                 shared):
        fresh = N.ModelWeights(model.cfg, model.params)
        N.unet_forward(fresh, latent, 9, "p")
        got = fresh.replace({name: T.Tensor(fresh.params[name].data + 1.0)})
        assert (got.text is fresh.text) == shared
        assert got.text if shared else got.text == {}
        assert fresh.replace({}).text is fresh.text

    def test_text_weights_name_every_text_sub_block_weight(self, model):
        prefixes = tuple(f"unet.{lid}.{sub}." for lid in N.BLOCK_ORDER
                         for sub in ("cross", "ln_cross"))
        want = {n for n in model.params if n.startswith(prefixes)}
        assert N._TEXT_WEIGHTS == want and len(want) == 6 * len(N.BLOCK_ORDER)
        with pytest.raises(TypeError):  # the memo is no constructor argument
            N.ModelWeights(model.cfg, model.params, {})

    def test_step_context_of_another_timestep_rejected(self, model, latent):
        with pytest.raises(N.ConfigError, match="t=5"):
            N.unet_forward(model, latent, 6, "p", step=N.StepContext(5, latent))

    def test_step_context_of_another_latent_rejected(self, model, latent):
        other = T.Tensor(latent.data.copy())
        with pytest.raises(N.ConfigError, match="another latent"):
            N.unet_forward(model, latent, 5, "p", step=N.StepContext(5, other))


class TestUnetForward:
    def test_output_shape_matches_input(self, model, latent):
        eps = N.unet_forward(model, latent, 10, "a person dancing")
        assert eps.shape == latent.shape
        assert np.isfinite(eps.data).all()

    def test_deterministic_under_fixed_seed(self, latent):
        a = N.unet_forward(N.init_model(CFG, seed=3), latent, 5, "x")
        b = N.unet_forward(N.init_model(CFG, seed=3), latent, 5, "x")
        np.testing.assert_array_equal(a.data, b.data)

    def test_bad_latent_shape_rejected(self, model):
        with pytest.raises(N.ConfigError):
            N.unet_forward(model, T.zeros((2, 4, 8, 8)), 0, None)

    def test_bad_timestep_rejected(self, model, latent):
        with pytest.raises(N.ConfigError):
            N.unet_forward(model, latent, 1000, None)

    def test_recon_and_edit_roles_agree_when_injection_disabled(self, model, latent):
        cache = I.ReconCache()
        eps_recon = N.unet_forward(model, latent, 12, "p", role="recon", cache=cache)
        inj = I.InjectionSettings(enabled=False)
        eps_edit = N.unet_forward(model, latent, 12, "p", role="edit", inj=inj)
        np.testing.assert_array_equal(eps_recon.data, eps_edit.data)

    def test_edit_role_reads_cache_written_by_recon(self, model, latent):
        cache = I.ReconCache()
        N.unet_forward(model, latent, 9, "p", role="recon", cache=cache)
        gated = [lid for lid in N.BLOCK_ORDER if N.TOPOLOGY[lid] == "decoder"]
        assert set(cache.held) == {(kind, lid) for kind in ("cs", "temporal")
                                   for lid in gated}
        assert {t for t, _, _ in cache.held.values()} == {9}
        out = N.unet_forward(model, latent, 9, "p", role="edit", cache=cache,
                             masks=mask_pyramid(), inj=I.InjectionSettings())
        assert out.shape == latent.shape
        assert cache.reads == {"cs": len(gated), "temporal": len(gated)}

    def test_edit_role_cache_miss_surfaces(self, model, latent):
        cache = I.ReconCache()
        with pytest.raises(I.CacheError, match="cache miss"):
            N.unet_forward(model, latent, 9, "p", role="edit", cache=cache,
                           masks=mask_pyramid(), inj=I.InjectionSettings())

    def test_encoder_layers_bit_identical_under_injection(self, model, latent):
        cache = I.ReconCache()
        N.unet_forward(model, latent, 7, "p", role="recon", cache=cache)
        probe_off = {}
        N.unet_forward(model, latent, 7, "p", role="edit",
                       inj=I.InjectionSettings(enabled=False), probe=probe_off)
        probe_on = {}
        N.unet_forward(model, latent, 7, "p", role="edit", cache=cache,
                       masks=mask_pyramid(), inj=I.InjectionSettings(),
                       probe=probe_on)
        for lid in ("enc0", "enc1", "mid"):
            for kind in ("cs", "cross", "temporal"):
                np.testing.assert_array_equal(probe_on[(lid, kind)],
                                              probe_off[(lid, kind)])
        assert not np.array_equal(probe_on[("dec1", "cs")], probe_off[("dec1", "cs")])

    def test_mid_block_injected_when_flagged(self, model, latent):
        cache = I.ReconCache()
        inj = I.InjectionSettings(inject_mid=True)
        N.unet_forward(model, latent, 7, "p", role="recon", cache=cache, inj=inj)
        assert ("cs", "mid") in cache.held

    def test_recon_equals_edit_full_foreground_configuration(self, model):
        # same token stream through both branches of one sub-block: temporal
        # injection is an exact identity, and the CS stack carries the
        # [K_full(2N), zeros(2N), K_cur(N)] layout
        stream = T.Tensor(rnd((CFG.frames, 64, 32), seed=60))
        cache = I.ReconCache()
        full_fg = I.LatentMask.from_rasters(
            np.ones((CFG.frames, 32, 32), np.float32), CFG.level_shapes())
        recon_cs, recon_temporal = block_hooks("recon", "dec0", cache)
        _, edit_temporal = block_hooks("edit", "dec0", cache, full_fg)
        recon_t = sub_block(stream, model, "dec0", "temporal", "time", recon_temporal)
        edit_t = sub_block(stream, model, "dec0", "temporal", "time", edit_temporal)
        np.testing.assert_array_equal(edit_t.data, recon_t.data)

        sub_block(stream, model, "dec0", "cs", "frames", recon_cs)
        k_r, v_r = (T.Tensor(s.data[3]) for s in cache.get("cs", "dec0", 21))
        mask2n = full_fg.cs_mask(0)[3]
        recon_parts = I.decouple_kv(k_r, v_r, mask2n)
        assert (recon_parts[2].data == 0).all()  # background block all zero
        np.testing.assert_array_equal(recon_parts[0].data, k_r.data)

    def test_gradient_of_mean_eps_matches_finite_differences(self, model, latent):
        name = "unet.dec0.temporal.w_out"
        probe = T.Tensor(rnd(latent.shape, seed=40))

        def f(w):
            m = model.replace({name: w})
            return T.mean(T.mul(N.unet_forward(m, latent, 33, "p"), probe))

        x0 = model.params[name].data
        v = rnd(x0.shape, seed=41)
        v /= np.linalg.norm(v)
        ok, err = directional_check(f, x0, v, h=5e-3, tol=1e-3)
        assert ok, f"relative error {err}"


class TestZeroConditioningNeutrality:
    def test_conditioned_equals_unconditioned_at_zero_init(self, latent):
        pristine = zero_control(N.init_model(CFG, seed=11))
        pose = N.pose_features(pristine, skeleton_stack())
        feats = N.controlnet_forward(pristine, latent, 4, pose)
        for f in feats.values():
            assert (f.data == 0).all()
        eps_cond = N.unet_forward(pristine, latent, 4, "p",
                                  step=controlled(pristine, latent, 4, pose))
        eps_plain = N.unet_forward(pristine, latent, 4, "p")
        np.testing.assert_array_equal(eps_cond.data, eps_plain.data)

    def test_pretrained_control_produces_signal(self, model, latent):
        pose = N.pose_features(model, skeleton_stack())
        feats = N.controlnet_forward(model, latent, 4, pose)
        assert any((f.data != 0).any() for f in feats.values())
        eps_cond = N.unet_forward(model, latent, 4, "p",
                                  step=controlled(model, latent, 4, pose))
        eps_plain = N.unet_forward(model, latent, 4, "p")
        assert not np.array_equal(eps_cond.data, eps_plain.data)


class TestControlnetForward:
    def test_residual_shapes_match_block_activations(self, model, latent):
        feats = N.controlnet_forward(model, latent, 3,
                                     N.pose_features(model, skeleton_stack()))
        assert feats["dec1"].shape == (CFG.frames, 16, 64)
        assert feats["dec0"].shape == (CFG.frames, 64, 32)

    def test_frame_count_mismatch_rejected(self, model, latent):
        with pytest.raises(N.ConfigError):
            N.controlnet_forward(model, latent, 3,
                                 N.pose_features(model, skeleton_stack()[:4]))

    def test_perturbing_one_pose_map_keeps_outputs_finite(self, model, latent):
        sk = skeleton_stack()
        base = N.controlnet_forward(model, latent, 3, N.pose_features(model, sk))
        sk2 = sk.copy()
        sk2[3] = 255.0 - sk2[3]
        bumped = N.controlnet_forward(model, latent, 3, N.pose_features(model, sk2))
        for key in base:
            assert np.isfinite(bumped[key].data).all()
        assert not np.array_equal(base["dec1"].data, bumped["dec1"].data)

    def test_each_frames_features_read_only_that_frame(self, model, latent):
        """The spatial blocks attend each frame's own tokens, so one frame's
        pose map moves that frame's features and no other's."""
        sk = skeleton_stack()
        base = N.controlnet_forward(model, latent, 3, N.pose_features(model, sk))
        sk[3] = 255.0 - sk[3]
        bumped = N.controlnet_forward(model, latent, 3, N.pose_features(model, sk))
        others = [f for f in range(CFG.frames) if f != 3]
        for key in base:
            np.testing.assert_array_equal(bumped[key].data[others], base[key].data[others])
            assert not np.array_equal(bumped[key].data[3], base[key].data[3])


class TestPoseFeatures:
    def test_pyramid_shapes_match_config_table(self, model):
        pyr = N.pose_features(model, np.zeros((CFG.frames, 32, 32)))
        assert {lvl: feat.shape for lvl, feat in pyr.items()} == {
            0: (CFG.frames, 64, 32), 1: (CFG.frames, 16, 64)}

    def test_zero_skeletons_give_finite_bias_only_features(self, model):
        pyr = N.pose_features(model, np.zeros((CFG.frames, 32, 32)))
        for feat in pyr.values():
            assert np.isfinite(feat.data).all()
            rows = feat.data.reshape(-1, feat.shape[-1])
            np.testing.assert_allclose(rows, np.tile(rows[0], (len(rows), 1)),
                                       atol=1e-7)

    def test_differing_bones_give_differing_features(self, model):
        a = np.zeros((CFG.frames, 32, 32))
        a[:, 10:12, 5:25] = 255.0
        b = a.copy()
        b[:, 20:22, 5:25] = 255.0
        fa = N.pose_features(model, a)[0].data
        fb = N.pose_features(model, b)[0].data
        assert not np.array_equal(fa, fb)

    def test_changing_one_frame_changes_only_its_rows(self, model):
        sk = skeleton_stack()
        base = N.pose_features(model, sk)
        sk[3] = 255.0 - sk[3]
        bumped = N.pose_features(model, sk)
        for level in (0, 1):
            changed = [not np.array_equal(base[level].data[f], bumped[level].data[f])
                       for f in range(CFG.frames)]
            assert changed == [f == 3 for f in range(CFG.frames)], level

    def test_stack_matches_one_frame_at_a_time(self, model):
        sk = skeleton_stack()
        stacked = N.pose_features(model, sk)
        one = N.ModelWeights(dataclasses.replace(CFG, frames=1), model.params)
        for f in range(CFG.frames):
            single = N.pose_features(one, sk[f:f + 1])
            for level in (0, 1):
                np.testing.assert_allclose(stacked[level].data[f],
                                           single[level].data[0], rtol=1e-6, atol=1e-7)

    @pytest.mark.parametrize("shape", [(CFG.frames, 16, 16), (CFG.frames, 32, 16),
                                       (32, 32), (CFG.frames - 1, 32, 32)],
                             ids=["resolution", "non-square", "one-raster", "frames"])
    def test_stack_shape_mismatch_rejected(self, model, shape):
        with pytest.raises(N.ConfigError):
            N.pose_features(model, np.zeros(shape))


class TestWeightsPlumbing:
    def test_trainable_names_cover_adapter_and_temporal_only(self, model):
        names = N.trainable_names(model)
        assert any(n.startswith("adapter0.") for n in names)
        assert any(n.startswith("adapter1.") for n in names)
        assert "unet.enc0.temporal.w_q" in names
        assert "unet.enc0.ln_temporal.gamma" in names
        assert "unet.enc0.cs.w_q" not in names
        assert not any(n.startswith("control.") for n in names)

    def test_checksum_changes_with_params(self, model):
        full = N.parameter_checksum(model)
        bumped = model.replace({"unet.in_proj": T.zeros((4, 32))})
        assert N.parameter_checksum(bumped) != full

    @pytest.mark.parametrize("cfg", [
        N.NetConfig(),
        N.NetConfig(widths=(8, 16), time_width=5, channels=3, schedule_steps=10),
        N.NetConfig(widths=(16, 16), time_width=1, channels=1, schedule_steps=1),
        N.NetConfig(widths=(4, 12), time_width=7, channels=2, schedule_steps=3,
                    frames=2, image_size=8, pool=2),
    ], ids=["default", "narrow-odd-time", "one-channel", "small"])
    def test_parameter_shapes_agree_with_init_model(self, cfg):
        built = N.init_model(cfg, seed=3).params
        assert N.parameter_shapes(cfg) == {n: t.shape for n, t in built.items()}

    @pytest.mark.parametrize("seed,digest", [
        (0, "55f613d80ba16b2c950480807880fb15017be95f2e6a368d2359a07febdd2433"),
        (1, "0d7ca7f6872eda618813ae1ba6e6cc6fc6fd5e3801e96dc52cc0dcbf7999fd40"),
    ], ids=["seed0", "seed1"])
    def test_init_model_weights_pinned(self, seed, digest):
        assert N.parameter_checksum(N.init_model(N.NetConfig(), seed)) == digest

    @pytest.mark.parametrize("cfg,seed,pretrained,digest", [
        (N.NetConfig(), 0, False,
         "f8db2303b016a9892cf25649c29d28cb1abe1d804d4e39663a02e76cdb6ded6a"),
        (N.NetConfig(widths=(4, 12), time_width=7, channels=2, schedule_steps=3,
                     frames=2, image_size=8, pool=2), 3, True,
         "72eba8fa6dc9ad919582e31f604ff60de0fc07e84a41454e8e48398ea8c9e50f"),
    ], ids=["zero-control", "small"])
    def test_init_model_draw_order_pinned(self, cfg, seed, pretrained, digest):
        model = N.init_model(cfg, seed)
        if not pretrained:
            model = zero_control(model)
        assert N.parameter_checksum(model) == digest

    def test_init_groups_pinned(self):
        adapter = AD.init_adapter(T.Rng(5), 8)
        assert named_digest(adapter.named) == (
            "2b7aeb0c353cec0802244954f491aed3aba334221efdc5b283f0b4d4cfa068f9")
        pset = A.init_projection_set(T.Rng(6), 6)
        assert named_digest({f.name: getattr(pset, f.name)
                             for f in dataclasses.fields(pset)}) == (
            "0455ba8840716a0f384be3fc6b0feb87af57e704830a55de6cd439dca68c0b2b")

    def test_manifest_bytes_pinned(self, tmp_path):
        N.save_checkpoint(tmp_path, N.init_model(N.NetConfig(), 7))
        digest = hashlib.sha256((tmp_path / "manifest.json").read_bytes())
        assert digest.hexdigest() == (
            "038456bd2e6a3ba63b1ab8c9b4a22fd87bed65aef9b8a24ae1f3a828821fdaff")

    def test_adapter_view_reads_its_level(self, model):
        w = AD.AdapterWeights(model.params, "adapter1")
        assert w.out_proj is model.params["adapter1.out_proj"]
        assert w["conv1"] is model.params["adapter1.conv1"]
        assert w.cross.w_q is model.params["adapter1.cross.w_q"]

    @pytest.mark.parametrize("changes,needle", [
        ({"time_width": 5}, "where: time_width"),
        ({"image_size": 30}, "where: image_size 30 not divisible by pool"),
        ({"image_size": 20}, "latent size 5"),
        ({"widths": [32]}, "where: widths"),
        ({"widths": [32, 0]}, "where: widths"),
        ({"pool": True}, "where: pool"),
        ({"frames": None}, "where: frames"),
        ({"schedule_steps": 0}, "where: schedule_steps"),
    ], ids=["odd-time-width", "pool-remainder", "odd-latent", "one-width",
            "zero-width", "bool-pool", "missing", "no-steps"])
    def test_net_config_names_the_field(self, changes, needle):
        values = {**dataclasses.asdict(N.NetConfig()), **changes}
        with pytest.raises(N.ConfigError, match=needle):
            N.net_config(values, "where: ")

    def test_net_config_takes_json_values(self):
        values = {**dataclasses.asdict(N.NetConfig()), "widths": [8, 16]}
        assert N.net_config(values) == N.NetConfig(widths=(8, 16))

    def test_replace_rejects_unknown_names(self, model):
        with pytest.raises(KeyError):
            model.replace({"bogus": T.zeros((1,))})

    def test_text_embedding_deterministic_and_uncond_reserved(self):
        a = N.text_embedding("a girl dancing", 32)
        b = N.text_embedding("a girl dancing", 32)
        np.testing.assert_array_equal(a.data, b.data)
        assert a.shape == (3, 32)
        u1 = N.text_embedding(None, 32)
        u2 = N.text_embedding("", 32)
        np.testing.assert_array_equal(u1.data, u2.data)
        assert u1.shape == (1, 32)

    def test_encode_video_is_average_pool(self, model):
        video = T.Tensor(np.ones((CFG.frames, 4, 32, 32), np.float32) * 3.0)
        lat = N.encode_video(video, CFG)
        assert lat.shape == (CFG.frames, 4, 8, 8)
        np.testing.assert_allclose(lat.data, 3.0, rtol=1e-6)


def inline_cs_sub_block(x, model, lid, kv):
    """The cross-frame sub-block written out inline, with the query projected
    before the frame shift."""
    assert kv is None
    pset = model.pset(f"unet.{lid}.cs")
    a_in = T.layer_norm(x, *model.ln(f"unet.{lid}.ln_cs"))
    q = T.matmul(a_in, pset.w_q)
    kv_in = T.concat([frame_shifted(a_in), a_in], axis=1)
    k = T.matmul(kv_in, pset.w_k)
    v = T.matmul(kv_in, pset.w_v)
    return T.matmul(A.attend(q, k, v), pset.w_out)


def inline_temporal_sub_block(x, model, lid, kv):
    """The temporal sub-block written out inline, with the attended stacks
    transposed back to frame-major order before ``w_out``."""
    assert kv is None
    pset = model.pset(f"unet.{lid}.temporal")
    t_in = T.layer_norm(x, *model.ln(f"unet.{lid}.ln_temporal"))
    stacks = T.transpose(t_in, (1, 0, 2))
    att = A.attend(T.matmul(stacks, pset.w_q), T.matmul(stacks, pset.w_k),
                   T.matmul(stacks, pset.w_v))
    return T.matmul(T.transpose(att, (1, 0, 2)), pset.w_out)


def inline_repeat_cross_sub_block(x, model, lid, text_kv):
    """The text sub-block written out inline, with the projected text keys
    and values repeated to every frame."""
    pset = model.pset(f"unet.{lid}.cross")
    c_in = T.layer_norm(x, *model.ln(f"unet.{lid}.ln_cross"))
    q = T.matmul(c_in, pset.w_q)
    k, v = (T.repeat_axis(T.reshape(kv, (1, *kv.shape)), 0, x.shape[0])
            for kv in text_kv)
    return T.matmul(A.attend(q, k, v), pset.w_out)


def training_gradients(model, latent):
    """Gradients of one training loss (conditioned U-Net, squared error) with
    respect to every trainable parameter. The prompt has several tokens, so
    that every text sub-block runs."""
    trainable = {n: model.params[n] for n in N.trainable_names(model)}
    _, grads = P.train_step(model, trainable, N.pose_features(model, skeleton_stack()),
                            latent, 417, T.Tensor(rnd(latent.shape, seed=80)),
                            "a figure marching right")
    return {n: g.data for n, g in grads.items()}


def test_training_gradients_match_inline_sub_blocks_within_rounding(
        model, latent, monkeypatch):
    # The kernels record the frame shift before the query projection, apply
    # the temporal w_out location-major, and let every frame attend one copy
    # of the text keys and values (whose gradients then sum over frames in
    # one product, not in a repeat's backward), so some gradient products sum
    # in another order than in the inline sub-blocks: training may move by
    # float32 rounding, bounded here at 1e-5 of each gradient's largest entry.
    # Nonzero adapter output projections make every trainable gradient nonzero.
    model = model.replace({f"adapter{lvl}.out_proj": T.Tensor(rnd((d, d), 81 + lvl, 0.1))
                           for lvl, d in enumerate(CFG.widths)})
    got = training_gradients(model, latent)
    real, crossed = N._sub_block, []

    def inline(x, m, pre, ln, proj, over, kv=None):
        lid = pre.split(".")[1]
        if proj == "cs":
            return inline_cs_sub_block(x, m, lid, kv)
        if proj == "temporal":
            return inline_temporal_sub_block(x, m, lid, kv)
        if proj == "cross":
            crossed.append(lid)
            return inline_repeat_cross_sub_block(x, m, lid, kv(x, m.pset(pre + ".cross")))
        return real(x, m, pre, ln, proj, over, kv)  # the ControlNet's spatial block
    monkeypatch.setattr(N, "_sub_block", inline)
    want = training_gradients(model, latent)
    assert crossed == list(N.BLOCK_ORDER)
    assert set(got) == set(want) == N.trainable_names(model)
    for name, grad in want.items():
        scale = np.abs(grad).max()
        assert scale > 0, name
        gap = np.abs(got[name] - grad).max()
        assert gap <= 1e-5 * scale, f"{name}: gap {gap:.3g} of largest entry {scale:.3g}"
