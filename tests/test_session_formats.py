"""Session archive formats: v2 writes, v1 read compatibility, spec replay."""

import json
from pathlib import Path

import pytest

from repro.api import SessionSpec
from repro.core.codec import pack_tree
from repro.core.session import load_session, save_session
from repro.core.visualize import to_dot

#: A v2 archive saved once and committed as text: a 16-daemon BG/L ring
#: hang with daemons 3 and 11 crashed at t=0 (its spec is inside).  The
#: two ``.stpt`` trees are kept as hex strings in ``stpt_hex.json``.
SAVED_V2 = Path(__file__).parent / "fixtures" / "session_v2_bgl16_crash"


def saved_v2_files() -> dict:
    """Every file of the saved archive, by name, as bytes."""
    files = {name: (SAVED_V2 / name).read_bytes()
             for name in ("session.json", "tree_3d.dot")}
    hexed = json.loads((SAVED_V2 / "stpt_hex.json").read_text())
    files.update((name, bytes.fromhex(h)) for name, h in hexed.items())
    return files


@pytest.fixture(scope="module")
def spec():
    return SessionSpec(machine="bgl", daemons=4, num_samples=2, seed=13)


@pytest.fixture(scope="module")
def result(spec):
    return spec.run().result


class TestV2Write:
    def test_save_embeds_spec(self, tmp_path, spec, result):
        out = save_session(result, tmp_path / "sess", spec=spec)
        meta = json.loads((out / "session.json").read_text())
        assert meta["format_version"] == 2
        assert meta["spec"]["machine"] == "bgl"
        # machine name derived from the spec when not given
        assert meta["machine"] == "bgl-4io-co"

    def test_archive_exposes_spec(self, tmp_path, spec, result):
        save_session(result, tmp_path / "sess", spec=spec)
        archive = load_session(tmp_path / "sess")
        assert archive.format_version == 2
        assert archive.spec == spec
        assert archive.timings == result.timings

    def test_save_without_spec(self, tmp_path, result):
        save_session(result, tmp_path / "sess", machine_name="m")
        archive = load_session(tmp_path / "sess")
        assert archive.spec is None
        assert archive.meta["machine"] == "m"

    def test_archive_spec_is_replayable(self, tmp_path, spec, result):
        save_session(result, tmp_path / "sess", spec=spec)
        replay = load_session(tmp_path / "sess").spec.run().result
        assert replay.timings == result.timings


class TestV1ReadCompatibility:
    def test_v1_directory_still_loads(self, tmp_path, spec, result):
        out = save_session(result, tmp_path / "sess", spec=spec)
        # Rewrite session.json exactly as the v1 writer produced it.
        meta = json.loads((out / "session.json").read_text())
        meta["format_version"] = 1
        del meta["spec"]
        (out / "session.json").write_text(json.dumps(meta, indent=2))

        archive = load_session(out)
        assert archive.format_version == 1
        assert archive.spec is None
        assert archive.timings == result.timings
        assert [c.size for c in archive.classes] == \
            [c.size for c in result.classes]

    def test_corrupted_embedded_spec_raises(self, tmp_path, spec, result):
        from repro.api import SpecValidationError

        out = save_session(result, tmp_path / "sess", spec=spec)
        meta = json.loads((out / "session.json").read_text())
        meta["spec"]["machine"] = "cray"  # hand-edited to nonsense
        (out / "session.json").write_text(json.dumps(meta))
        archive = load_session(out)
        with pytest.raises(SpecValidationError):
            archive.spec

    def test_unknown_version_rejected(self, tmp_path, spec, result):
        out = save_session(result, tmp_path / "sess", spec=spec)
        meta = json.loads((out / "session.json").read_text())
        meta["format_version"] = 99
        (out / "session.json").write_text(json.dumps(meta))
        with pytest.raises(ValueError, match="unsupported session format"):
            load_session(out)

    def test_missing_meta_rejected(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_session(tmp_path)


class TestSavedV2Archive:
    """A committed archive reads back to the session that wrote it."""

    @pytest.fixture(scope="class")
    def saved(self):
        return saved_v2_files()

    @pytest.fixture(scope="class")
    def archive(self, saved, tmp_path_factory):
        root = tmp_path_factory.mktemp("session_v2_bgl16_crash")
        for name, data in saved.items():
            (root / name).write_bytes(data)
        return load_session(root)

    def test_classes_equal_a_fresh_run_of_its_spec(self, archive):
        replay = archive.spec.run().result
        assert archive.classes == replay.classes
        assert [(c.label(), c.size, c.representative)
                for c in archive.classes] == \
            [(c["label"], c["size"], c["representative"])
             for c in archive.meta["classes"]]
        assert list(replay.merge.missing_daemons) == \
            archive.meta["missing_daemons"] == [3, 11]

    def test_trees_reencode_to_the_saved_bytes(self, archive, saved):
        for name in ("tree_2d", "tree_3d"):
            assert pack_tree(getattr(archive, name)) == saved[f"{name}.stpt"]
        assert to_dot(archive.tree_3d, graph_name="stat_3d_tree") == \
            saved["tree_3d.dot"].decode()

    def test_resaving_a_replay_writes_the_same_files(self, archive, saved,
                                                     tmp_path):
        spec = archive.spec
        out = save_session(spec.run().result, tmp_path / "again", spec=spec)
        assert sorted(f.name for f in out.iterdir()) == sorted(saved)
        for name, data in saved.items():
            assert (out / name).read_bytes() == data, name
