"""A model-based test of incremental evaluate (after QuickCheck's state machines).

A hypothesis state machine edits a small run directory: it rewrites, deletes
and adds records, adds, changes and drops a ``--reference``, changes
``--w-conf`` and cuts an evaluate short at a chosen results file with
``DiskFull``.  After every step an evaluate into the results directory that
has seen every step must reuse exactly the evaluations the model predicts and
leave the same bytes as a cold evaluate into a fresh directory, and ``filter``
must export the same corpus from both.

The records are the shipped mock texts under the model ids ``m``, ``m-x`` and
``m.x``: "-" and "." sort before "/", so output-id order and (model, language,
task) order disagree between them.
"""
import re
import shutil
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import Phase, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from lexglean.codec import parse_record
from lexglean.generation import (
    MOCK_TIMESTAMP,
    GenerationRecord,
    SamplingParams,
    dumps_record,
    load_mock_fixtures,
    record_path,
)

from conftest import FIXTURES_PATH, SEEDS_DIR, DiskFull, run_cli

MODELS = ("m", "m-x", "m.x")
LANGUAGES = ("hau", "fon")
PROMPTS = ("creative/cw_01", "creative/cw_02", "dialogue/dl_01")
POOL = sorted(
    f"{model}/{language}/{prompt}" for model in MODELS for language in LANGUAGES for prompt in PROMPTS
)
FIXTURES = load_mock_fixtures(FIXTURES_PATH)
TEXTS = [FIXTURES[f"gpt-4o-mini/{language}/{prompt}"].response_text for language in LANGUAGES for prompt in PROMPTS]
EDITS = (
    lambda text: text + " Ọ̀rọ̀.",
    lambda text: "",
    lambda text: "The weather was fine this morning, so we walked to the market together. " * 3,
    lambda text: TEXTS[len(text) % len(TEXTS)],
)
# Seed files a --reference can name, by language: the language's own and another one.
REFERENCE_FILES = {"hau": ("hau_Latn.txt", "yor_Latn.txt"), "fon": ("fon_Latn.txt", "fra_Latn.txt")}
# The results files in the order evaluate writes them.
WRITES = ("evaluations.jsonl", "summary.json", "summary.csv", "overlap.json", "run_meta.json", "fingerprints.json")


def record_bytes(output_id, text):
    model, language, task_type, prompt_id = output_id.split("/")
    record = GenerationRecord(
        output_id, prompt_id, model, language, task_type, "p", "s",
        SamplingParams(0.7, 0.95, 256), text, "stop", MOCK_TIMESTAMP, 0.0, 1,
    )
    return dumps_record(record).encode("utf-8")


def files(directory):
    """The files of a directory by name; none for a directory that does not exist."""
    directory = Path(directory)
    return {path.name: path.read_bytes() for path in sorted(directory.iterdir())} if directory.exists() else {}


class IncrementalEvaluate(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.scratch = tempfile.TemporaryDirectory()
        root = Path(self.scratch.name)
        self.outputs, self.kept, self.cold = root / "outputs", root / "kept", root / "cold"
        self.corpora = root / "corpus"
        self.records: dict[str, bytes] = {}  # output id -> bytes of its record file
        # The records an evaluate into ``kept`` last left fingerprints for,
        # and the --w-conf it ran with; None when ``kept`` has no fingerprints.
        self.fingerprinted: dict[str, bytes] | None = None
        self.fingerprinted_w_conf = None
        self.references: dict[str, str] = {}
        self.w_conf = 0.5
        for index, output_id in enumerate(POOL):
            if index % 3:
                self.write(output_id, TEXTS[index % len(TEXTS)])

    def teardown(self):
        self.scratch.cleanup()

    def write(self, output_id, text):
        path = record_path(self.outputs, output_id)
        path.parent.mkdir(parents=True, exist_ok=True)
        self.records[output_id] = record_bytes(output_id, text)
        path.write_bytes(self.records[output_id])

    def pick(self, ids, index):
        return sorted(ids)[index % len(ids)]

    def options(self):
        return ["--w-conf", self.w_conf, *(
            option
            for language, name in sorted(self.references.items())
            for option in ("--reference", f"{language}={SEEDS_DIR / name}")
        )]

    def evaluate(self, results):
        return run_cli(["evaluate", "--outputs", self.outputs, "--results", results, *self.options()])

    def refused_reference(self):
        """The first --reference whose language has no records, if any."""
        languages = {output_id.split("/")[1] for output_id in self.records}
        return next((language for language in sorted(self.references) if language not in languages), None)

    def expected_reuse(self):
        if self.fingerprinted is None or self.fingerprinted_w_conf != self.w_conf:
            return 0
        return sum(self.fingerprinted.get(output_id) == data for output_id, data in self.records.items())

    def check_completed(self, code, stdout, err):
        assert code == 0, err
        reused = re.search(r"^reused (\d+) of (\d+) evaluations$", stdout, re.M)
        assert (int(reused.group(1)), int(reused.group(2))) == (self.expected_reuse(), len(self.records))
        self.fingerprinted, self.fingerprinted_w_conf = dict(self.records), self.w_conf

    @rule(picks=st.lists(st.integers(0, 99), min_size=1, max_size=3), edit=st.sampled_from(EDITS))
    def rewrite(self, picks, edit):
        for index in picks:
            output_id = self.pick(self.records, index)
            text = parse_record(GenerationRecord, self.records[output_id], output_id).response_text
            self.write(output_id, edit(text))

    @precondition(lambda self: len(self.records) > 1)
    @rule(index=st.integers(0, 99))
    def delete(self, index):
        output_id = self.pick(self.records, index)
        record_path(self.outputs, output_id).unlink()
        del self.records[output_id]

    @precondition(lambda self: len(self.records) < len(POOL))
    @rule(index=st.integers(0, 99), text=st.integers(0, 99))
    def add(self, index, text):
        output_id = self.pick(set(POOL) - set(self.records), index)
        self.write(output_id, TEXTS[text % len(TEXTS)])

    @rule(language=st.sampled_from(LANGUAGES), choice=st.integers(0, 1))
    def set_reference(self, language, choice):
        self.references[language] = REFERENCE_FILES[language][choice]

    @precondition(lambda self: self.references)
    @rule(index=st.integers(0, 99))
    def drop_reference(self, index):
        del self.references[self.pick(self.references, index)]

    @rule(w_conf=st.sampled_from([0.5, 0.3, 0.8]))
    def set_w_conf(self, w_conf):
        self.w_conf = w_conf

    @rule(cut_at=st.sampled_from(WRITES))
    def cut_short(self, cut_at):
        before = files(self.kept)
        real_open = Path.open

        def open_then_fail(path, mode="r", *args, **kwargs):
            handle = real_open(path, mode, *args, **kwargs)
            return DiskFull(handle) if path.name == cut_at + ".tmp" else handle

        with mock.patch.object(Path, "open", open_then_fail):
            code, stdout, err = self.evaluate(self.kept)
        written = [name for name in WRITES if name != "overlap.json" or self.references]
        if self.refused_reference() is not None:
            assert code == 2 and "no records for that language" in err
            assert files(self.kept) == before
            return
        if cut_at not in written:
            self.check_completed(code, stdout, err)
            return
        assert (code, stdout) == (1, "")
        assert err.startswith("error: ") and "No space left on device" in err
        kept = set(written[: written.index(cut_at)]) | ({"evaluations.jsonl"} & set(before))
        assert sorted(path.name for path in self.kept.iterdir()) == sorted(kept)
        if cut_at == "evaluations.jsonl":
            assert files(self.kept)["evaluations.jsonl"] == before["evaluations.jsonl"]
        self.fingerprinted = None

        code, stdout, err = self.filter(self.kept, self.corpora / "refused")
        assert (code, stdout) == (1, "")
        assert err == f"error: no fingerprints.json in {self.kept} (run 'evaluate' again)\n"
        assert not (self.corpora / "refused").exists()
        for kind, name in (("efficiency", "summary.json"), ("overlap", "overlap.json")):
            code, stdout, err = run_cli(["report", "--results", self.kept, "--kind", kind, "--format", "csv"])
            assert code == (0 if name in kept else 1), err

    def filter(self, results, corpus):
        return run_cli(["filter", "--results", results, "--outputs", self.outputs, "--out", corpus])

    @invariant()
    def incremental_equals_cold(self):
        before = files(self.kept)
        code, stdout, err = self.evaluate(self.kept)
        refused = self.refused_reference()
        if refused is not None:
            assert (code, stdout) == (2, "")
            assert f"--reference {refused}: no records for that language" in err
            assert files(self.kept) == before
            return
        self.check_completed(code, stdout, err)
        shutil.rmtree(self.cold, ignore_errors=True)
        code, stdout, err = self.evaluate(self.cold)
        assert code == 0, err
        assert f"reused 0 of {len(self.records)} evaluations" in stdout
        assert files(self.kept) == files(self.cold)

        shutil.rmtree(self.corpora, ignore_errors=True)
        exported = []
        for results in (self.kept, self.cold):
            code, stdout, err = self.filter(results, self.corpora / results.name)
            assert code == 0, err
            exported.append((stdout, files(self.corpora / results.name)))
        assert exported[0] == exported[1]


# Each step runs two to four evaluates of about 20 records.  Shrinking a
# failure would run thousands more and take minutes; the failing steps are
# printed as they ran.
IncrementalEvaluate.TestCase.settings = settings(
    derandomize=True, database=None, max_examples=12, stateful_step_count=10, deadline=None,
    phases=(Phase.explicit, Phase.reuse, Phase.generate),
)
test_incremental_evaluate_follows_the_model = IncrementalEvaluate.TestCase
