"""The memory budget of the distributed operator contexts (DESIGN.md §12).

The hopping kernels compute with the site index fastest while the caller
and the node-memory buffers keep the site-slowest layout, so a context
could easily end up holding a scratch array twice — once per layout — or
a shifted copy of its links beside the site-fastest ``(U, U^dagger)``
pair it multiplies by.  Either shows as resident memory, not as a wrong
number.  This suite walks one warmed-up context of each operator and
checks what it owns: every array reachable from its attributes, less the
node memory (which the descriptors fix) and the caller's own arrays.

* no owned array is a full-volume link array in the site-slowest layout;
* every owned full-volume field array is site-fastest, except the
  caller-facing buffers, which hold fields in the caller's layout;
* the owned bytes are at most the figure before the kernels went
  site-fastest plus one link array per link family (the ``U^dagger`` of
  the pair that replaced the shifted ``U^dagger`` copy, and its ``U``).
"""

import numpy as np
import pytest

from tests.harness import booted, scattered, system

#: the caller-facing buffers: results handed out and the rotated input
#: ``apply_dagger`` hands to ``apply``, in the caller's layout; and the
#: clover term, whose tensor contraction keeps the tensor's
CALLER_LAYOUT = {
    "out", "_apply_out", "_dagger_out", "_rot_in", "_rot_out", "_clover_scratch",
}

#: case -> (operator, global lattice on the 2-node machine, parameters,
#: link families, owned bytes with the site-slowest kernels)
CASES = {
    "wilson": ("wilson", (8, 4, 4, 4), {"mass": 0.3}, 1, 801792),
    "clover": ("wilson", (8, 4, 4, 4), {"mass": 0.3, "c_sw": 1.0}, 1, 850944),
    "wilson-full": (
        "wilson", (8, 4, 4, 4), {"mass": 0.3, "compress": False}, 1, 1078272
    ),
    "dwf": ("dwf", (8, 4, 4, 4), {"Ls": 4}, 1, 2700288),
    "asqtad": ("asqtad", (16, 4, 4, 4), {"mass": 0.1}, 2, 1331712),
}

#: the caller's arrays a context keeps a reference to
CALLER_ARRAYS = ("links", "fat", "long", "clover_tensor")


def root(array):
    while isinstance(array.base, np.ndarray):
        array = array.base
    return array


def owned_arrays(ctx):
    """``{name: (array, root)}`` of the memory ``ctx`` owns: every array
    reachable from its attributes (through dicts, lists and tuples) whose
    root is neither node memory nor one of the caller's arrays, named by
    the first path that reaches its root."""
    memory = ctx.api.node.memory
    foreign = {id(root(memory.get(name))) for name in memory.buffer_names()}
    for attr in CALLER_ARRAYS:
        value = getattr(ctx, attr, None)
        if isinstance(value, np.ndarray):
            foreign.add(id(root(value)))
    found = {}

    def visit(name, value):
        if isinstance(value, np.ndarray):
            base = root(value)
            if id(base) not in foreign and id(base) not in found:
                found[id(base)] = (name, value, base)
        elif isinstance(value, dict):
            for key, item in value.items():
                visit(f"{name}[{key}]", item)
        elif isinstance(value, (list, tuple)):
            for key, item in enumerate(value):
                visit(f"{name}[{key}]", item)

    for name, value in vars(ctx).items():
        visit(name, value)
    return {name: (value, base) for name, value, base in found.values()}


def warmed_context(op, shape, params):
    """One rank's context after an ``apply`` and an ``apply_dagger``, and
    what it owns, walked while the run still holds its node memory."""
    gauge, src = system((97, f"context-memory-{op}"), shape, op, Ls=params.get("Ls"))
    machine, part = booted((2, 1, 1, 1, 1, 1), word_batch="face")
    context = scattered(part, op, gauge, **params)
    local = context.scatter(src)
    held = {}

    def program(api):
        ctx = held.setdefault(api.rank, context(api))
        out = yield from ctx.apply(local[api.rank])
        return (yield from ctx.apply_dagger(out))

    machine.run_partition(part, program)
    owned = owned_arrays(held[0])
    machine.last_run.finalize()
    return held[0], owned


@pytest.fixture(scope="module", params=sorted(CASES))
def case(request):
    op, shape, params, families, before = CASES[request.param]
    ctx, owned = warmed_context(op, shape, params)
    return request.param, ctx, owned, families, before


class TestContextMemory:
    def test_no_site_slowest_link_array(self, case):
        _, ctx, owned, _, _ = case
        for name, (value, base) in owned.items():
            for array in (value, base):
                assert array.shape[-3:] != (ctx.volume, 3, 3), name

    def test_scratch_is_site_fastest(self, case):
        _, ctx, owned, _, _ = case
        for name, (value, _base) in owned.items():
            if not np.iscomplexobj(value) or ctx.volume not in value.shape:
                continue  # index tables, phases, face-sized arrays
            if name in CALLER_LAYOUT:
                assert value.shape == ctx.out.shape, name
            else:
                assert value.shape[-1] == ctx.volume, (name, value.shape)

    def test_owned_bytes_within_budget(self, case):
        label, ctx, owned, families, before = case
        link_array = ctx.geometry.ndim * ctx.volume * 9 * 16  # complex128 3x3
        total = sum(base.nbytes for _, base in owned.values())
        assert total <= before + families * link_array, (label, total)

    def test_the_walk_finds_what_a_context_holds(self, case):
        # the guard must be able to fail: a scratch array in the caller's
        # layout, held in a container, is owned memory the checks see
        _, ctx, owned, _, _ = case
        assert "source" in owned and "out" in owned
        ctx._shadow = [np.empty_like(ctx.out)]
        try:
            value, base = owned_arrays(ctx)["_shadow[0]"]
            assert base.nbytes == ctx.out.nbytes and value.shape[-1] != ctx.volume
        finally:
            del ctx._shadow
