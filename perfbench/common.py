"""Shared pieces of the benchmark: sizing, seeded inputs, the Ray
session, timing and the result record.

Everything is resolved against the current directory, which must be the
root of a checkout of the repository (``run.py`` checks this).  All files
the benchmark writes go under ``.perfbench_work/`` there.
"""

from __future__ import annotations

import glob
import json
import os
import resource
import shutil
import statistics
import subprocess
import time

import numpy as np

ROOT = os.getcwd()
WORK = os.path.join(ROOT, ".perfbench_work")

# Corpus shape shared by every workload: 4 parquet files of fine row
# groups, pages of 30-90 terms (~60 on average).  5k pages keep one Ray
# build near 2 s on a single core, so several builds fit in one run.
PAGES = 5000
FILES = 4
MIN_LEN, MAX_LEN = 30, 90
ROW_GROUP = 256
SETUP_REPS = 3          # set-up repetitions; setup_s reports their median
WARMUP_PAGES = 200      # one small build that starts the Ray workers
OBJECT_STORE_BYTES = 256 << 20   # a 5k-page build holds a few MB at once
UNSEEN_START = 10_000_000  # doc-identity offset for pages added after a build

STOPWORD_QUERY_TERMS = ["the", "and", "of", "is", "to", "in", "it", "a"]


def nproc() -> int:
    """Cores as the ``nproc`` command reports them.  It honours
    OMP_NUM_THREADS, so a job limited to one thread is sized to one core."""
    try:
        out = subprocess.run(["nproc"], capture_output=True, text=True,
                             check=True, timeout=10).stdout
        return max(1, int(out.strip()))
    except (OSError, ValueError, subprocess.SubprocessError):
        return len(os.sched_getaffinity(0))


def engine_config(**semantics):
    """EngineConfig sized to this host's cores: a reduce grid of
    max(2, cores) term buckets x 2 doc shards, one parser per core, and
    parse partitions of PAGES / (2 * cores) rows (a file smaller than
    that is one partition)."""
    from search_engine_ray.config import EngineConfig

    n = nproc()
    return EngineConfig(num_shards=2, term_buckets=max(2, n),
                        parser_concurrency=n,
                        parse_part_rows=max(ROW_GROUP, PAGES // (2 * n)),
                        **semantics)


def sizing() -> dict:
    cfg = engine_config()
    return {"nproc": nproc(), "ray_num_cpus": nproc(),
            "num_shards": cfg.num_shards, "term_buckets": cfg.term_buckets,
            "parser_concurrency": cfg.parser_concurrency,
            "parse_part_rows": cfg.parse_part_rows,
            "pages": PAGES, "files": FILES, "row_group": ROW_GROUP}


def now() -> float:
    return time.perf_counter()


def median(xs) -> float:
    return float(statistics.median(xs))


def best_p50(times) -> float:
    """Median over repeated operations of each one's fastest repetition.
    Each operation is repeated in passes and its best time is its cost
    with the least interference from the shared host, as ``timeit``
    reports; a run-wide median of raw times moves with the host's load."""
    return median([min(ts) for ts in times if ts])


def pct(xs, q: float) -> float:
    return float(np.percentile(np.asarray(xs, dtype=np.float64), q))


def calib_ms() -> float:
    """A fixed pure-Python loop: shows which host window a run landed in."""
    t0 = now()
    acc = 0
    for i in range(300_000):
        acc += (i * i) % 7
    return (now() - t0) * 1000.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def workload_seed(seed: int, tag: str) -> int:
    """A per-workload integer seed derived from the run's --seed."""
    return int(np.random.SeedSequence(
        [seed, sum(tag.encode())]).generate_state(1)[0])


def gen_corpus(seed: int, n: int = PAGES, start: int = 0):
    """Seeded page tables, one per file, with disjoint doc identities."""
    from search_engine_ray.fixtures import gen_pages

    per = n // FILES
    return [gen_pages(per, seed=seed + i, start=start + i * per,
                      min_len=MIN_LEN, max_len=MAX_LEN)
            for i in range(FILES)]


def write_corpus(tables, out_dir: str) -> str:
    import pyarrow.parquet as pq

    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    for i, t in enumerate(tables):
        pq.write_table(t, os.path.join(out_dir, f"part_{i}.parquet"),
                       row_group_size=ROW_GROUP)
    return out_dir


def page_rows(tables):
    """(url, warc_ts_us, text) rows, the shape OracleIndex and NRT take."""
    rows = []
    for t in tables:
        rows.extend(zip(t.column("url").to_pylist(),
                        [x.value for x in t.column("warc_ts")],
                        t.column("text").to_pylist()))
    return rows


def dir_bytes(path: str) -> int:
    return sum(os.path.getsize(p) for p in glob.glob(
        os.path.join(path, "**", "*.parquet"), recursive=True))


def index_bytes(index_dir: str) -> dict:
    from search_engine_ray.index import manifest as mf

    return {st: dir_bytes(mf.stage_dir(index_dir, st))
            for st in ("dict", "postings", "docmeta")}


def stage_counters(index_dir: str, stage: str) -> dict:
    from search_engine_ray.index import manifest as mf

    with open(os.path.join(mf.stage_dir(index_dir, stage),
                           mf.STAGE_MARKER)) as f:
        return json.load(f).get("counters", {})


class RaySession:
    """A local Ray session sized to this host's cores.  Workers import
    the package from the checkout root; the session's temp dir and the
    build's shuffle spill stay inside the work dir."""

    def __init__(self):
        self.start_s = 0.0
        self.stop_s = 0.0

    def start(self) -> None:
        import ray
        from ray.data import DataContext

        from search_engine_ray.index import build

        os.environ["PYTHONPATH"] = os.pathsep.join(
            p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
        # Ray puts its sockets at <temp>/session_<date>_<time>_<us>_<pid>/
        # sockets/plasma_store and refuses a Unix socket path longer than
        # 107 bytes, which a temp dir under a deep checkout exceeds; Ray
        # also wants the temp dir absolute, so name the work dir through
        # this process's cwd link, which is the checkout root
        os.makedirs(os.path.join(WORK, "ray"), exist_ok=True)
        tmp = os.path.join(f"/proc/{os.getpid()}/cwd",
                           os.path.relpath(WORK), "ray")
        # the build spills its shuffle to /dev/shm when it exists; keep
        # it beside the index instead (the build removes it when done)
        if hasattr(build, "_spill_base"):
            build._spill_base = lambda out_dir: out_dir
        t0 = now()
        # the object store is a file under the work dir, not in /dev/shm,
        # so every file a run writes stays in the checkout
        ray.init(address="local", num_cpus=nproc(), include_dashboard=False,
                 logging_level="ERROR", log_to_driver=False, _temp_dir=tmp,
                 object_store_memory=OBJECT_STORE_BYTES,
                 _plasma_directory=tmp)
        DataContext.get_current().enable_progress_bars = False
        self.start_s = now() - t0

    def stop(self) -> None:
        import ray

        t0 = now()
        if ray.is_initialized():
            ray.shutdown()
        self.stop_s = now() - t0


def warmup_build(run, cfg, seed: int) -> float:
    """Build a small corpus once, so the builds that follow do not pay
    the session's worker start-up; returns its seconds."""
    from search_engine_ray.index.build import build_index

    t0 = now()
    pages = write_corpus(gen_corpus(seed, n=WARMUP_PAGES),
                         run.path("warm_pages"))
    build_index(pages, run.path("warm_index"), cfg)
    return now() - t0


class BuiltIndex:
    """The set-up serve and nrt share: Ray start, one warm-up build, then
    SETUP_REPS times write the corpus, build it and build its docmeta
    sidecar, then Ray stop.  ``setup_s`` counts the single steps once and
    the repeated step's median; ``rates`` are the builds' docs/s."""

    def __init__(self, run, cfg, seed: int):
        from search_engine_ray.index.build import build_index
        from search_engine_ray.query.engine import warm_docmeta_sidecar

        tr = run.tracer
        ray = RaySession()
        rep_s, self.rates, self.manifests, self.index = [], [], [], None
        try:
            ray.start()
            warm_s = warmup_build(run, cfg, seed + 101)
            for rep in range(SETUP_REPS):
                t0 = now()
                self.tables = gen_corpus(seed)
                self.pages = write_corpus(self.tables, run.path("pages"))
                out = run.path(f"index{rep}")
                tb = now()
                man = tr.call("build_index", build_index, self.pages, out,
                              cfg)
                self.rates.append(man["n_docs"] / (now() - tb))
                tr.call("warm_docmeta_sidecar", warm_docmeta_sidecar, out)
                rep_s.append(now() - t0)
                self.manifests.append(man)
                if self.index:
                    shutil.rmtree(self.index)
                self.index = out
        finally:
            ray.stop()
        self.ray_start_s = ray.start_s
        self.setup_s = ray.start_s + warm_s + median(rep_s) + ray.stop_s

    def bytes_per_input_byte(self) -> float:
        return sum(index_bytes(self.index).values()) / dir_bytes(self.pages)


class Run:
    """One benchmark run: its arguments, scratch dir, tracer and tallies."""

    def __init__(self, workload: str, seed: int, seconds: float, tracer):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.tracer = tracer
        self.dir = os.path.join(WORK, f"run-{workload}-{seed}-{os.getpid()}")
        shutil.rmtree(self.dir, ignore_errors=True)
        os.makedirs(self.dir)
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def path(self, *parts: str) -> str:
        return os.path.join(self.dir, *parts)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(f"FAILED {what}")

    def cleanup(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def same_answer(a, b, tol: float = 1e-9) -> bool:
    """Same doc ids in the same order, scores within ``tol``."""
    return (len(a) == len(b)
            and all(x[1] == y[1] and abs(x[0] - y[0]) <= tol
                    for x, y in zip(a, b)))
