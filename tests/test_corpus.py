"""Every command line in ``corpus.json`` prints the bytes recorded there.

The corpus pins what the command line does beyond the benchmark's seed-1
jobs (``perfbench/reference.json``, replayed in ``test_cli.py``): every
declared usage in text and in ``--json``, ``scenario curves`` in both
contexts at g = 1..5, ``distinguish`` in its four output modes for mck and
chain at g = 2..4, a ``verify`` whose target is a matrix, and refusals with
exit 2, 3, 64 and 66.  It also runs branches the other argvs miss: an
explore that reaches closure, compares that end early on a letter-count
mismatch, a split-multiset mismatch and identical inputs, the
zero-diagonal pair step of ``lattice sig``, a Torelli factor of exponent 0
and ``conjugate`` writing a matrix target.  ``files`` holds the input documents; each replay
writes them to a fresh directory and runs every argv there in process,
through ``cli.run``.  An entry holds the argv, the exit code and the sha256
of stdout, and a refusal (a nonzero exit) its stderr too.  The whole replay
takes about 1 s on a 2-CPU machine (Python 3.11), within its 10 s budget.

Recording the corpus is a change to a check: do it only on a commit whose
outputs are known good.  It replays the argvs and files already in the
corpus and writes their outcomes back:

    PYTHONPATH=src python tests/test_corpus.py
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

from monolab import cli

CORPUS = os.path.join(os.path.dirname(__file__), "corpus.json")


def load():
    with open(CORPUS, encoding="utf-8") as fh:
        return json.load(fh)


def replay(files, argvs, directory):
    """The corpus entry of each argv, run by ``cli.run`` in ``directory``
    once ``files`` (name -> document) are written there."""
    for name, doc in files.items():
        with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    entries, cwd = [], os.getcwd()
    os.chdir(directory)
    try:
        for argv in argvs:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.run(list(argv))
            entry = {"argv": list(argv), "exit": code,
                     "stdout_sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}
            if code:
                entry["stderr"] = err.getvalue()
            entries.append(entry)
    finally:
        os.chdir(cwd)
    return entries


def test_every_corpus_command_line_prints_its_recorded_bytes(tmp_path):
    corpus = load()
    got = replay(corpus["files"], [e["argv"] for e in corpus["entries"]], str(tmp_path))
    for want, have in zip(corpus["entries"], got):
        assert have == want, want["argv"]


def test_the_corpus_runs_every_mode_in_text_and_json(monkeypatch, tmp_path):
    # the handlers are stubbed: each records its mode and whether --json
    # was given, and computes nothing
    picked = set()
    for words, modes in list(cli._COMMANDS.items()):
        monkeypatch.setitem(cli._COMMANDS, words, [
            m._replace(handler=lambda args, m=m: picked.add((m.usage, "json" in args)) or "")
            for m in modes])
    corpus = load()
    replay(corpus["files"], [e["argv"] for e in corpus["entries"] if e["exit"] == 0],
           str(tmp_path))
    declared = {(m.usage, json_out) for modes in cli._COMMANDS.values() for m in modes
                for json_out in ((False, True) if "json" in m.flags else (False,))}
    assert picked == declared


def _record():
    corpus = load()
    with tempfile.TemporaryDirectory() as directory:
        entries = replay(corpus["files"], [e["argv"] for e in corpus["entries"]], directory)
    # one input document or entry per line, so a re-recording diffs by line
    with open(CORPUS, "w", encoding="utf-8") as fh:
        fh.write('{"files": {\n%s\n},\n"entries": [\n%s\n]}\n' % (
            ",\n".join("%s: %s" % (json.dumps(k), json.dumps(v, sort_keys=True))
                       for k, v in sorted(corpus["files"].items())),
            ",\n".join(json.dumps(e, sort_keys=True) for e in entries)))


if __name__ == "__main__":
    sys.exit(_record())
