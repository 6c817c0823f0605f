"""The commit ``scripts/bench_pairs.py`` records for each side of a paired run."""
import importlib.util
import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)

pytestmark = pytest.mark.skipif(shutil.which("git") is None, reason="needs git")
# a file perfbench's source_hash reads
HASHED_CONFIG = "configs/verify_band.json"


def git(repo: Path, *args: str) -> str:
    res = subprocess.run(["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@t", *args],
                         capture_output=True, text=True, check=True)
    return res.stdout.strip()


@pytest.fixture
def history(tmp_path, monkeypatch):
    """A repository holding copies of the hashed sources in two commits, as
    this checkout's history: (repo, first commit, second commit)."""
    repo = tmp_path / "repo"
    for directory in ("src/contour_seeker", "perfbench"):
        (repo / directory).mkdir(parents=True)
        for path in (ROOT / directory).glob("*.py"):
            shutil.copy(path, repo / directory / path.name)
    (repo / "configs").mkdir()
    shutil.copy(ROOT / HASHED_CONFIG, repo / HASHED_CONFIG)
    git(repo, "init", "-q")
    git(repo, "add", "-A")
    git(repo, "commit", "-q", "-m", "first")
    first = git(repo, "rev-parse", "HEAD")
    with open(repo / "src" / "contour_seeker" / "ezgp.py", "a") as fh:
        fh.write("# changed\n")
    git(repo, "commit", "-q", "-am", "second")
    monkeypatch.setattr(bench_pairs, "ROOT", repo)
    return repo, first, git(repo, "rev-parse", "HEAD")


def test_archive_export_takes_the_commit_its_sources_hash_to(history):
    repo, first, second = history
    # an export of the first commit inside the repository, whose HEAD is the second
    export = repo / "export"
    export.mkdir()
    archive = subprocess.run(["git", "-C", str(repo), "archive", first], capture_output=True, check=True)
    subprocess.run(["tar", "-x", "-C", str(export)], input=archive.stdout, check=True)
    source = bench_pairs.source_sha256(export)
    assert bench_pairs.checkout_head(export) is None
    assert bench_pairs.side_commit(export, source) == first
    # sources that no commit holds record no commit
    with open(export / HASHED_CONFIG, "a") as fh:
        fh.write("\n")
    assert bench_pairs.side_commit(export, bench_pairs.source_sha256(export)) is None


def test_checkout_top_takes_its_head(history, tmp_path):
    repo, first, second = history
    assert bench_pairs.side_commit(repo, "not a source hash") == second
    clone = tmp_path / "clone"
    git(tmp_path, "clone", "-q", str(repo), str(clone))
    git(clone, "checkout", "-q", first)
    assert bench_pairs.side_commit(clone, "not a source hash") == first
