"""Offline benchmark of the textemo pipeline: refine -> matrix -> HTTP.

    python3 perfbench/run.py --workload prepare --seed 1 --seconds 36 --trace 0

Run from the repository root. The benchmark generates its inputs from the
seed, runs the workload's textemo commands as child processes in rounds of a
cold pass (empty completion cache) and a warm pass (the same commands over
the filled cache), checks every round's artifacts, and prints one JSON
object as its last line. With --trace 0 it reports the end-to-end metrics,
medians over the rounds that fit in --seconds (at least one). With --trace 1
it runs one round with every command under tracer.py and reports the
per-layer metrics. The benchmark and its children run on one CPU, and times
are wall-clock time less the hypervisor's steal on that CPU. See README.md
for the workloads, the metric map and the steadiness notes.
"""

from __future__ import annotations

import argparse
import array
import fcntl
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DATA = ROOT / "src" / "textemo" / "data"
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gen  # noqa: E402
import stub  # noqa: E402

PY = sys.executable
CONCURRENCY = "2"
MOCK_SEED = 0
MODEL = "gpt-3.5-turbo"
MIN_LENGTH = 5
SETUP_SAMPLES_FIRST = 3
SETUP_SAMPLES_PER_ROUND = 2
MOCK_SAMPLE_PER_ROW = 40
MIB = 1024 * 1024

SETUP_SNIPPET = "import sys, textemo, textemo.corpus; textemo.corpus.load_corpus(sys.argv[1])"


class CommandFailed(RuntimeError):
    pass


class Pipeline:
    """Runs textemo commands as child processes, recording their peak RSS
    and, when tracing, the path of each command's span summary."""

    def __init__(self, work: Path, trace: bool, env: dict[str, str]):
        self.work = work
        self.trace = trace
        self.env = env
        self.attempted = 0
        self.failed = 0
        self.peak_kb = 0
        self.summaries: list[Path] = []

    def textemo(self, args: list[str]) -> None:
        self.attempted += 1
        if self.trace:
            summary = self.work / f"trace-{self.attempted}.json"
            self.summaries.append(summary)
            argv = [PY, str(HERE / "tracer.py"), str(summary), "--", *args]
        else:
            argv = [PY, "-m", "textemo.cli", *args]
        log = self.work / "command.log"
        start, steal = time.perf_counter(), steal_s()
        with open(log, "wb") as out:
            proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT, env=self.env, cwd=ROOT)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        print(f"benchmark: {time.perf_counter() - start:8.3f} s  textemo {args[0]} (steal {steal_s() - steal:.2f} s,"
              f" cpu {usage.ru_utime + usage.ru_stime:.3f} s)", file=sys.stderr)
        self.peak_kb = max(self.peak_kb, usage.ru_maxrss)
        if proc.returncode != 0:
            self.failed += 1
            tail = log.read_text(encoding="utf-8", errors="replace")[-3000:]
            raise CommandFailed(f"textemo {' '.join(args)} exited {proc.returncode}:\n{tail}")

    def run_pass(self, commands: list[list[str]]) -> tuple[float, list[Path]]:
        """Run one pass; return its time on net_clock and the trace paths."""
        self.summaries = []
        start, steal = time.perf_counter(), steal_s()
        for args in commands:
            self.textemo(args)
        wall, steal = time.perf_counter() - start, steal_s() - steal
        print(f"benchmark: {wall - steal:8.3f} s  pass (wall {wall:.3f} s, steal {steal:.2f} s)", file=sys.stderr)
        return wall - steal, self.summaries


# The /proc/stat row of the CPU the benchmark runs on; see pin_to_one_cpu().
STEAL_ROW = "cpu"


def steal_s() -> float:
    """Time the hypervisor has taken so far from the benchmark's CPU: the
    steal column of its /proc/stat row (0 where there is none)."""
    with open("/proc/stat", encoding="ascii") as fh:
        for line in fh:
            fields = line.split()
            if fields[0] == STEAL_ROW:
                return int(fields[8]) / os.sysconf("SC_CLK_TCK") if len(fields) > 8 else 0.0
    return 0.0


def net_clock() -> float:
    """Wall-clock seconds less the hypervisor's steal on the benchmark's CPU."""
    return time.perf_counter() - steal_s()


def read_json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def shipped_templates() -> dict[str, str]:
    return checks.parse_templates((DATA / "templates.txt").read_text(encoding="utf-8"))


def refine_args(corpus: Path, out: Path, cache: Path | None) -> list[str]:
    args = ["refine", "--in", str(corpus), "--out", str(out), "--selector", "llm",
            "--min-length", str(MIN_LENGTH), "--unit", "chars", "--backend", "mock",
            "--mock-seed", str(MOCK_SEED), "--model", MODEL, "--concurrency", CONCURRENCY]
    return args + ["--cache-dir", str(cache)] if cache else args


class Workload:
    """Inputs, commands and checks of one workload."""

    corpus: Path
    # Deterministic outputs, which must be byte-identical in every pass.
    artifacts: tuple[str, ...]
    # Run logs whose summary line must report all cache hits in a warm pass.
    logs: str | None = None

    def commands(self, out: Path, cache: Path) -> list[list[str]]:
        """One pass: textemo argument lists writing under out, caching in cache."""
        raise NotImplementedError

    def verify(self, out: Path) -> None:
        """Check a pass's artifacts against independent computations."""
        raise NotImplementedError

    def pass_stats(self) -> dict:
        """Backend-side counts since the last call; none for the mock backend."""
        return {}

    def close(self) -> None:
        """Stop what the workload started."""


class Prepare(Workload):
    """validate -> wer -> refine over ten recordings of 300 records."""

    artifacts = ("wer.csv", "refined.json")

    def __init__(self, seed: int, work: Path, env: dict[str, str]):
        self.objects = gen.generate(seed, sessions=(1, 2, 3, 4, 5), per_recording=300)
        self.corpus = work / "corpus.json"
        gen.write(self.objects, self.corpus)
        persist(self.corpus)

    def commands(self, out: Path, cache: Path) -> list[list[str]]:
        c = str(self.corpus)
        return [
            ["validate", c],
            ["wer", c, "--wer-out", str(out / "wer.csv")],
            refine_args(self.corpus, out / "refined.json", cache),
        ]

    def verify(self, out: Path) -> None:
        from textemo.refine import SELECTION_INSTRUCTION

        checks.check_wer(self.objects, (out / "wer.csv").read_text(encoding="utf-8"))
        refined = read_json(out / "refined.json")
        checks.check_refine(self.objects, refined, SELECTION_INSTRUCTION, MODEL, MOCK_SEED, MIN_LENGTH)


class Matrix(Workload):
    """The shipped 13-row grid over one pre-refined session, then
    `textemo evaluate` on every row's predictions."""

    artifacts = ("matrix/*.predictions.json", "matrix/*.eval.json", "eval/*.json")
    logs = "matrix/*.log.jsonl"

    def __init__(self, seed: int, work: Path, env: dict[str, str]):
        self.seed = seed
        self.corpus = pre_refined_corpus(seed, work, env, per_recording=250)
        self.objects = read_json(self.corpus)
        self.specs = read_json(DATA / "experiment_matrix.json")["experiments"]
        self.templates = shipped_templates()

    def commands(self, out: Path, cache: Path) -> list[list[str]]:
        (out / "eval").mkdir(parents=True)
        c = str(self.corpus)
        commands = [["matrix", c, "--out-dir", str(out / "matrix"), "--cache-dir", str(cache),
                     "--mock-seed", str(MOCK_SEED), "--concurrency", CONCURRENCY]]
        for spec in self.specs:
            name = spec["name"]
            commands.append(["evaluate", "--predictions", str(out / "matrix" / f"{name}.predictions.json"),
                             "--corpus", c, "--eval-out", str(out / "eval" / f"{name}.json")])
        return commands

    def verify(self, out: Path) -> None:
        rows = read_json(out / "matrix" / "matrix.json")
        # textemo matrix exits 0 even when rows fail, so the rows are read.
        failed = [row for row in rows if "error" in row]
        checks.ensure(not failed, f"matrix rows failed: {failed}")
        checks.ensure([r["name"] for r in rows] == [s["name"] for s in self.specs], "matrix row names")
        rng = random.Random(self.seed)
        for spec in self.specs:
            name = spec["name"]
            predictions = read_json(out / "matrix" / f"{name}.predictions.json")
            checks.check_prediction_ids(self.objects, predictions, name)
            for report in (out / "matrix" / f"{name}.eval.json", out / "eval" / f"{name}.json"):
                checks.check_eval(self.objects, predictions, read_json(report), str(report.relative_to(out)))
            checks.check_mock_sample(self.objects, predictions, spec, self.templates[spec["prompt"]],
                                     MOCK_SEED, rng, MOCK_SAMPLE_PER_ROW)


class HttpStubRun(Workload):
    """`textemo run --backend http` on one pre-refined session against the
    local stub server."""

    SPEC = {"name": "http", "text_source": "ensemble", "prompt": "baseline",
            "context_mode": "session", "context_length": 3, "model": MODEL}
    artifacts = ("http.predictions.json", "http.eval.json")
    logs = "http.log.jsonl"

    def __init__(self, seed: int, work: Path, env: dict[str, str]):
        self.corpus = pre_refined_corpus(seed, work, env, per_recording=1000)
        self.objects = read_json(self.corpus)
        self.template = shipped_templates()[self.SPEC["prompt"]]
        self.server = subprocess.Popen(
            [PY, str(HERE / "stub.py")],
            stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True,
        )
        try:
            port = self.server.stdout.readline().strip()
            if not port.isdigit():
                raise CommandFailed(f"stub server did not start: {port!r}")
            self.base = f"http://127.0.0.1:{port}"
            self.last = self.stats()
        except BaseException:
            self.close()
            raise

    def stats(self) -> dict:
        from urllib.request import urlopen

        with urlopen(self.base + "/stats", timeout=10) as resp:
            return json.load(resp)

    def pass_stats(self) -> dict:
        """Stub requests and connections since the last call; the /stats
        request's own connection is not counted."""
        now = self.stats()
        delta = {k: now[k] - self.last[k] for k in now}
        delta["connections"] -= 1
        self.last = now
        return delta

    def commands(self, out: Path, cache: Path) -> list[list[str]]:
        s = self.SPEC
        return [["run", str(self.corpus), "--name", s["name"], "--backend", "http",
                 "--endpoint", self.base + "/v1/chat/completions", "--model", s["model"],
                 "--text-source", s["text_source"], "--prompt", s["prompt"],
                 "--context-mode", s["context_mode"], "--context-length", str(s["context_length"]),
                 "--cache-dir", str(cache), "--out-dir", str(out), "--concurrency", CONCURRENCY]]

    def verify(self, out: Path) -> None:
        predictions = read_json(out / "http.predictions.json")
        checks.check_prediction_ids(self.objects, predictions, "http")
        checks.check_stub_answers(self.objects, predictions, self.SPEC, self.template, stub.answer)
        checks.check_eval(self.objects, predictions, read_json(out / "http.eval.json"), "http.eval.json")

    def close(self) -> None:
        if self.server.poll() is None:
            self.server.terminate()
        self.server.wait(timeout=30)
        self.server.stdout.close()


WORKLOADS = {"prepare": Prepare, "matrix": Matrix, "http-stub": HttpStubRun}


def persist(path: Path) -> Path:
    """Write an input file back to disk now, so that its writeback does not
    fall into a timed pass later."""
    with open(path, "rb") as fh:
        os.fsync(fh.fileno())
    return path


def pre_refined_corpus(seed: int, work: Path, env: dict[str, str], per_recording: int) -> Path:
    """One session (recordings Ses01F and Ses01M), refined without a cache."""
    raw, refined = work / "session.json", work / "corpus.json"
    gen.write(gen.generate(seed, sessions=(1,), per_recording=per_recording), raw)
    subprocess.run([PY, "-m", "textemo.cli", *refine_args(raw, refined, None)], env=env, cwd=ROOT,
                   check=True, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    return persist(refined)


def setup_time(corpus: Path, env: dict[str, str]) -> float:
    """Time, on net_clock, a fresh process takes to start, import textemo
    and load the corpus."""
    start = net_clock()
    subprocess.run([PY, "-c", SETUP_SNIPPET, str(corpus)], env=env, cwd=ROOT, check=True, capture_output=True)
    return net_clock() - start


def cache_files(cache: Path) -> dict[str, int]:
    return {p.name: p.stat().st_size for p in cache.iterdir()} if cache.is_dir() else {}


def run_round(workload: Workload, pipe: Pipeline, rdir: Path, reference: Path | None) -> dict:
    """A cold pass on an empty cache, a warm pass over it, then the checks.

    The first round's cold artifacts are verified against independent
    computations; every later pass must reproduce them byte for byte. Each
    round writes into a directory of its own that is kept until the run
    ends: creating thousands of files right after deleting as many was
    several times slower on the ext4 volume this was tuned on.
    """
    cache, cold, warm = rdir / "cache", rdir / "cold", rdir / "warm"
    cold.mkdir(parents=True)
    warm.mkdir()
    workload.pass_stats()
    cold_s, cold_traces = pipe.run_pass(workload.commands(cold, cache))
    cold_stats = workload.pass_stats()
    filled = cache_files(cache)
    warm_s, warm_traces = pipe.run_pass(workload.commands(warm, cache))
    warm_stats = workload.pass_stats()
    checks.ensure(cache_files(cache) == filled, "the warm pass changed the cache, so it missed")
    checks.ensure(warm_stats.get("requests", 0) == 0, f"the warm pass reached the backend: {warm_stats}")
    check_round(workload, cold, warm, reference)
    return {
        "dir": rdir,
        "cold_s": cold_s,
        "warm_s": warm_s,
        "cache_mb": sum(filled.values()) / MIB,
        "cold_traces": cold_traces,
        "warm_traces": warm_traces,
        "cold_stats": cold_stats,
    }


# What reading a missing, truncated or ill-shaped artifact raises.
MALFORMED = (KeyError, IndexError, TypeError, ValueError, OSError)


def check_round(workload: Workload, cold: Path, warm: Path, reference: Path | None) -> None:
    """Verify the cold pass (first round only) and compare both passes with
    the reference; an artifact that cannot be read is a failed check."""
    try:
        if reference is None:
            workload.verify(cold)
            reference = cold
        for pattern in workload.artifacts:
            checks.check_identical(reference, cold, pattern)
            checks.check_identical(reference, warm, pattern)
        if workload.logs:
            logs = sorted(warm.glob(workload.logs))
            checks.ensure(bool(logs), f"no {workload.logs} run logs in the warm pass")
            for log in logs:
                checks.check_all_hits(log)
    except MALFORMED as exc:
        raise checks.CheckError(f"malformed artifact: {exc!r}") from exc


def merge_traces(paths: list[Path]) -> tuple[dict[str, dict], dict[str, int]]:
    spans: dict[str, dict] = {}
    counts: dict[str, int] = {}
    for path in paths:
        summary = read_json(path)
        for name, entry in summary["spans"].items():
            merged = spans.setdefault(name, {"durations": [], "self_s": 0.0})
            merged["durations"] += entry["durations"]
            merged["self_s"] += entry["self_s"]
        for name, n in summary["counts"].items():
            counts[name] = counts.get(name, 0) + n
    return spans, counts


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def per_layer(result: dict, http: bool) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced round; layers idle on the workload
    read 0."""
    spans, counts = merge_traces(result["cold_traces"])
    warm_spans, warm_counts = merge_traces(result["warm_traces"])

    def durations(name: str, source=spans) -> list[float]:
        return source.get(name, {}).get("durations", [])

    def total(name: str, source=spans) -> float:
        return sum(durations(name, source))

    def self_s(name: str) -> float:
        return spans.get(name, {}).get("self_s", 0.0)

    window = durations("context.build")
    complete = durations("llm.complete")
    sends = durations("llm.send")
    stats = result["cold_stats"]
    return {
        "corpus.load_s": (total("corpus.load"), "s"),
        "wer.report_s": (total("wer.report"), "s"),
        "wer.pairs": (counts.get("wer_pairs", 0), "count"),
        "wer.distinct_pair_ratio": (ratio(counts.get("wer_distinct_pairs", 0), counts.get("wer_pairs", 0)), "ratio"),
        "refine.self_s": (self_s("refine.refine_record"), "s"),
        "context.build_s": (sum(window), "s"),
        "context.window_p50_us": (percentile(window, 0.50) * 1e6, "us"),
        "context.window_p99_us": (percentile(window, 0.99) * 1e6, "us"),
        "prompts.render_s": (total("prompts.render"), "s"),
        "prompts.template_loads": (len(durations("prompts.load_templates")), "count"),
        "llm.complete_p50_ms": (percentile(complete, 0.50) * 1e3, "ms"),
        "llm.complete_p99_ms": (percentile(complete, 0.99) * 1e3, "ms"),
        "llm.http_overhead_ms": (percentile(sends, 0.50) * 1e3 - stub.DELAY_MS if http else 0.0, "ms"),
        "llm.http_connections": (stats.get("connections", 0), "count"),
        "llm.backend_requests": (len(sends), "count"),
        "llm.cache_store_s": (total("llm.cache_store"), "s"),
        "llm.cache_stores": (len(durations("llm.cache_store")), "count"),
        "llm.cache_load_s": (total("llm.cache_load", warm_spans), "s"),
        "llm.cache_hit_ratio": (ratio(warm_counts.get("cache_load_hits", 0), warm_counts.get("cache_loads", 0)), "ratio"),
        "llm.fingerprints_per_request": (ratio(counts.get("fingerprints", 0), len(complete)), "ratio"),
        "llm.attempts_per_request": (ratio(len(sends), counts.get("complete_misses", 0)), "ratio"),
        "experiments.self_s": (self_s("experiments.run_experiment"), "s"),
        "experiments.write_artifacts_s": (total("experiments.write_artifacts"), "s"),
        "metrics.evaluate_s": (total("metrics.evaluate"), "s"),
        "cli.self_s": (self_s("cli.main"), "s"),
        "trace.cold_wall_s": (result["cold_s"], "s"),
    }


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if "proxy" not in k.lower()}
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["TEXTEMO_API_KEY"] = "benchmark-key"
    env["NO_PROXY"] = "127.0.0.1,localhost"
    return env


def measure(args: argparse.Namespace, work: Path) -> dict:
    env = child_env()
    sys.path.insert(0, str(ROOT / "src"))
    workload = WORKLOADS[args.workload](args.seed, work, env)
    pipe = Pipeline(work, bool(args.trace), env)
    setup_times: list[float] = []
    rounds: list[dict] = []
    try:
        if not args.trace:
            setup_time(workload.corpus, env)  # compiles the bytecode
            setup_times += [setup_time(workload.corpus, env) for _ in range(SETUP_SAMPLES_FIRST)]
        start = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            reference = rounds[0]["dir"] / "cold" if rounds else None
            rounds.append(run_round(workload, pipe, work / f"round-{len(rounds)}", reference))
            if args.trace:
                break
            # Set-up samples spread over the run, so that one burst of host
            # load does not decide the median.
            setup_times += [setup_time(workload.corpus, env) for _ in range(SETUP_SAMPLES_PER_ROUND)]
            elapsed = time.perf_counter() - start
            if elapsed + (time.perf_counter() - round_start) > args.seconds:
                break
    except (CommandFailed, checks.CheckError) as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return {"correct": False, "attempted": max(pipe.attempted, 1), "failed": pipe.failed, "metrics": {}}
    finally:
        workload.close()

    if args.trace:
        metrics = per_layer(rounds[0], http=args.workload == "http-stub")
    else:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "wall_s": (statistics.median(r["cold_s"] for r in rounds), "s"),
            "warm_wall_s": (statistics.median(r["warm_s"] for r in rounds), "s"),
            "peak_rss_mb": (pipe.peak_kb / 1024, "MiB"),
            "cache_mb": (statistics.median(r["cache_mb"] for r in rounds), "MiB"),
        }
    print(f"benchmark: {len(rounds)} round(s) of {args.workload}", file=sys.stderr)
    return {
        "correct": True,
        "attempted": pipe.attempted,
        "failed": pipe.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


# linux/fs.h: the inode flags ioctls and the "top of directory hierarchy" flag.
FS_IOC_GETFLAGS, FS_IOC_SETFLAGS, FS_TOPDIR_FL = 0x80086601, 0x40086602, 0x00020000


def spread_directories(path: Path) -> None:
    """Mark path as the top of directory hierarchies (`chattr +T`), so
    that ext4 puts each run's directory in a block group with room to
    spare instead of next to the directories that earlier runs used.

    A cold pass creates thousands of cache files. Next to inodes that an
    earlier run deleted moments before, or in a crowded block group,
    creating a file took up to 15 times the kernel time it takes in a
    roomy group, so the cold pass swung by a third from run to run. Where
    the file system has no such flag, this does nothing.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        flags = array.array("i", [0])
        fcntl.ioctl(fd, FS_IOC_GETFLAGS, flags, True)
        fcntl.ioctl(fd, FS_IOC_SETFLAGS, array.array("i", [flags[0] | FS_TOPDIR_FL]))
    except OSError:
        pass
    finally:
        os.close(fd)


def pin_to_one_cpu() -> None:
    """Run the benchmark, and every process it starts, on one CPU, and
    count the hypervisor's steal on that CPU alone.

    On the 2-vCPU reference machine, passes that kept both vCPUs busy lost
    up to half their time to the hypervisor whenever the host was busy:
    `refine` with two worker threads took 1.2 s at one time and 2.0 s at
    another, with 1 s of steal, while the same command pinned to one vCPU
    stayed at 1.1-1.4 s. The program's Python work holds the interpreter
    lock anyway, so the threads gain little from a second core. Pinned,
    every pass's time is either spent on this CPU, idle, or stolen from it.
    """
    global STEAL_ROW
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    STEAL_ROW = f"cpu{cpu}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "textemo" / "cli.py").is_file():
        print(f"benchmark: no textemo sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    pin_to_one_cpu()
    (HERE / "work").mkdir(exist_ok=True)
    spread_directories(HERE / "work")
    work = HERE / "work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        result = measure(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
