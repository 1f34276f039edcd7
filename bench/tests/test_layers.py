"""The file -> layer map covers every file under ``src/repro/`` exactly once."""

from pathlib import Path

import layers

REPRO = Path(__file__).resolve().parents[2] / "src" / "repro"
FILES = sorted(p.relative_to(REPRO).as_posix() for p in REPRO.rglob("*.py"))


def test_every_source_file_has_exactly_one_layer():
    assert FILES, "src/repro not found"
    unmapped = [f for f in FILES if layers.layer_of(f) not in layers.LAYERS]
    assert unmapped == []


def test_map_has_no_dead_entries():
    # an entry naming a file or package that is gone would hide a rename
    assert [f for f in layers.FILE_LAYER if f not in FILES] == []
    packages = {f.split("/", 1)[0] for f in FILES if "/" in f}
    assert sorted(layers.PACKAGE_LAYER) == sorted(packages)


def test_every_layer_owns_a_file():
    owned = {layers.layer_of(f) for f in FILES}
    assert owned == set(layers.LAYERS)


def test_outside_paths_are_unmapped():
    assert layers.layer_of("newpackage/thing.py") is None
    assert layers.layer_of("stray.py") is None
