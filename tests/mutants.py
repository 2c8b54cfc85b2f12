"""The mutation kill matrix of tier-1: every operator mutant of the library, run
against the whole test suite. ``python tests/mutants.py`` enumerates the same
mutants on every run, runs the suite (all of it but this tool's own guard) on a
temporary copy of the tree once unmutated and once per mutant (two at a time),
prints one line per mutant and a summary, and exits 1 when a mutant survives that ``EQUIVALENT`` does not list.
Standard library only; about 22-27 minutes on two cores, so not a tier-1 step.

A mutant is one swap at one operator: ``<``/``<=``, ``>``/``>=``, ``==``/``!=``,
``is``/``is not``, ``+``/``-`` and ``*``/``/`` (augmented forms included) and
``and``/``or``, or a dropped ``not``, in the code and in the text of each
``integrand`` call (the suite's f′, which ``quadrature`` compiles). It is
killed when its failing test ids differ from the unmutated copy's, or when its
run times out. A killed line lists the test functions whose ids changed: the
matrix a fold of tests reads.
"""

import ast
import io
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import tokenize
import xml.etree.ElementTree as ET
from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("core", "quadrature", "methods", "analysis", "bench", "cli")
# this tool's tier-1 guard reads the source it enumerates, so every mutant would fail it:
# a dropped `not` changes the count, and an equivalent mutant no longer matches its entry
GUARD = "tests/test_scripts.py::test_mutants_are_enumerated_the_same_every_run_and_each_compiles"
COMMAND = (sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0",
           f"--deselect={GUARD}")
TIMEOUT_S = 400
CHILDREN = 2

SWAPS = {"<": "<=", "<=": "<", ">": ">=", ">=": ">", "==": "!=", "!=": "==", "is": "is not",
         "is not": "is", "+": "-", "-": "+", "*": "/", "/": "*", "+=": "-=", "-=": "+=",
         "*=": "/=", "/=": "*=", "and": "or", "or": "and", "not": ""}

# (module, stripped source line, swap) -> why no test can tell the mutant from the library
EQUIVALENT = {}

Mutant = namedtuple("Mutant", "module line text swap source")


def _char_col(line, byte_col):  # ast columns count UTF-8 bytes, tokenize's count characters
    return len(line.encode()[:byte_col].decode())


def _spans(tree, lines):
    """(start, end) of each place where an operator sits between two nodes, as
    ((row, col), (row, col)) character positions, with the `not` of each
    ``not x`` as the span from its own start to its operand's."""
    def start(node):
        return node.lineno, _char_col(lines[node.lineno - 1], node.col_offset)

    def end(node):
        return node.end_lineno, _char_col(lines[node.end_lineno - 1], node.end_col_offset)

    todo = [tree]
    while todo:
        node = todo.pop()
        if isinstance(node, ast.JoinedStr):  # 3.12 tokenizes f-strings apart, 3.10 and 3.11 whole
            continue
        todo.extend(ast.iter_child_nodes(node))
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            yield from ((end(a), start(b)) for a, b in zip(operands, operands[1:]))
        elif isinstance(node, ast.BinOp):
            yield end(node.left), start(node.right)
        elif isinstance(node, ast.AugAssign):
            yield end(node.target), start(node.value)
        elif isinstance(node, ast.BoolOp):
            yield from ((end(a), start(b)) for a, b in zip(node.values, node.values[1:]))
        elif isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not):
            yield start(node), start(node.operand)


# the text of a call ``integrand("...")`` is code too: each f′ of bench.SUITE, which quadrature compiles
TEXT_CALL = "integrand"


def _operators(source):
    """(begin, end, operator) of each swappable operator in ``source``, as character
    offsets, the operators inside each ``integrand`` text included."""
    lines = source.splitlines(True)
    offsets = [0]
    for line in lines:
        offsets.append(offsets[-1] + len(line))
    tokens = [tok for tok in tokenize.generate_tokens(io.StringIO(source).readline)
              if tok.type in (tokenize.OP, tokenize.NAME)]
    tree = ast.parse(source)
    for first, last in _spans(tree, lines):
        inside = [tok for tok in tokens if first <= tok.start and tok.end <= last
                  and tok.string not in ("(", ")")]
        operator = " ".join(tok.string for tok in inside)
        if operator not in SWAPS:  # e.g. `in`, `%`, `**` or `//=`
            continue
        (row, col), (end_row, end_col) = inside[0].start, inside[-1].end
        begin, end = offsets[row - 1] + col, offsets[end_row - 1] + end_col
        if operator == "not":  # drop the word and the spaces after it
            end += len(source[end:]) - len(source[end:].lstrip(" "))
        yield begin, end, operator
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == TEXT_CALL:
            [literal] = node.args
            text = literal.value
            begin = offsets[literal.lineno - 1] + _char_col(lines[literal.lineno - 1], literal.col_offset) + 1
            assert source[begin:begin + len(text) + 1] == text + source[begin - 1], "not a plain literal"
            yield from ((begin + first, begin + last, operator) for first, last, operator in _operators(text))


def module_mutants(module):
    """Every mutant of ``src/haarnewton/<module>.py``, in source order."""
    source = (ROOT / "src" / "haarnewton" / f"{module}.py").read_text()
    lines = source.splitlines(True)
    mutants = []
    for begin, end, operator in sorted(_operators(source)):
        replacement = SWAPS[operator]
        row = source.count("\n", 0, begin) + 1
        mutants.append(Mutant(module, row, lines[row - 1].strip(), f"{operator} -> {replacement or '(dropped)'}",
                              source[:begin] + replacement + source[end:]))
    return mutants


def mutants():
    return [mutant for module in MODULES for mutant in module_mutants(module)]


def failing_ids(mutant=None):
    """The failing test ids of tier-1 on a fresh copy of the tree with ``mutant``
    written in, with the child's wall time; None for a timeout."""
    with tempfile.TemporaryDirectory() as scratch:
        tree = Path(scratch) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache", ".perfbench_out"))
        if mutant:
            (tree / "src" / "haarnewton" / f"{mutant.module}.py").write_text(mutant.source)
        report = Path(scratch) / "tier1.xml"
        # no bytecode cache: a mutant of the same size and second would otherwise load the stale one
        env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
        began = time.monotonic()
        child = subprocess.Popen([*COMMAND, f"--junitxml={report}"], cwd=tree, env=env,
                                 stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, start_new_session=True)
        try:
            child.wait(TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.wait()
            return None, time.monotonic() - began
        spent = time.monotonic() - began
        if not report.exists():
            return {f"<no report, exit {child.returncode}>"}, spent
        return {f"{case.get('classname')}::{case.get('name')}"
                for case in ET.parse(report).getroot().iter("testcase")
                if case.find("failure") is not None or case.find("error") is not None}, spent


def _function(test_id):  # tests.test_methods::test_x[row] -> test_methods::test_x
    module, _, name = test_id.partition("::")
    return f"{module.rpartition('.')[2]}::{name.partition('[')[0]}"


def main():
    every = mutants()
    baseline, spent = failing_ids()
    child_s = spent
    print(f"unmutated: {len(baseline)} failing: {' '.join(sorted(baseline))}", flush=True)
    killed = timeouts = equivalent = survived = 0
    with ThreadPoolExecutor(CHILDREN) as pool:
        for mutant, (failing, spent) in zip(every, pool.map(failing_ids, every)):
            child_s += spent
            where = f"{mutant.module}.py:{mutant.line}  {mutant.swap}  {mutant.text!r}"
            if failing is None:
                killed += 1
                timeouts += 1
                print(f"killed    {where}  timeout", flush=True)
            elif failing != baseline:
                killed += 1
                changed = failing ^ baseline
                functions = sorted({_function(test_id) for test_id in changed})
                print(f"killed    {where}  [{len(changed)} ids] {' '.join(functions)}", flush=True)
            elif (mutant.module, mutant.text, mutant.swap) in EQUIVALENT:
                equivalent += 1
                print(f"equiv     {where}  {EQUIVALENT[mutant.module, mutant.text, mutant.swap]}", flush=True)
            else:
                survived += 1
                print(f"SURVIVED  {where}", flush=True)
    print(f"{len(every)} mutants: {killed} killed ({timeouts} by timeout), {equivalent} equivalent, "
          f"{survived} survived; {child_s:.0f} s of child time, Python {sys.version.split()[0]}")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
