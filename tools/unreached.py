"""List the functions of src/campanato_lab that no CLI command calls, and
compare the list with the committed one in unreached.txt beside this file.

The pass runs campanato_lab.cli.main with each command on each committed
config (configs/*.json) and benchmark config (perfbench/configs/*.json)
under sys.setprofile, from before the package is imported, and records
every code object that is called.  A function is every `def` in the
package, methods and nested functions included; lambdas and
comprehensions are not listed.

unreached.txt has one line per unreached function, "name: reason", where
the reason says why the function stays in src/ although no command
reaches it.  The script prints the differences and exits 1 when the
names differ or a line has no reason; otherwise it exits 0.

    python tools/unreached.py
"""

import ast
import contextlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "campanato_lab"
LISTED = Path(__file__).with_name("unreached.txt")
COMMANDS = ("run", "norms", "verify", "phi", "multiplier")


def definitions():
    """{(file, first line of the code object): qualified name} for every
    def of the package; a decorated function's code starts at its first
    decorator."""
    found = {}

    def visit(node, prefix, path):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                line = min([child.lineno] + [d.lineno
                                             for d in child.decorator_list])
                found[str(path), line] = name
                visit(child, name + ".<locals>.", path)
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".", path)
            else:
                visit(child, prefix, path)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")),
              f"{path.stem}.", path)
    return found


def called_code():
    """(file, first line) of every code object called by the CLI pass."""
    calls = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            calls.add((code.co_filename, code.co_firstlineno))

    configs = sorted(ROOT.glob("configs/*.json")) + sorted(
        ROOT.glob("perfbench/configs/*.json"))
    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as out, \
            contextlib.redirect_stdout(io.StringIO()):
        sys.setprofile(profile)
        try:
            from campanato_lab.cli import main
            for config in configs:
                for command in COMMANDS:
                    main([command, "--config", str(config), "--out",
                          f"{out}/{config.stem}-{command}"])
        finally:
            sys.setprofile(None)
    return calls


def listed():
    """{name: reason} of unreached.txt."""
    entries = {}
    for line in LISTED.read_text(encoding="utf-8").splitlines():
        if line.strip() and not line.startswith("#"):
            name, _, reason = line.partition(":")
            entries[name.strip()] = reason.strip()
    return entries


def main():
    calls = called_code()
    unreached = sorted(name for key, name in definitions().items()
                       if key not in calls)
    entries = listed()
    new = [name for name in unreached if name not in entries]
    gone = sorted(set(entries) - set(unreached))
    bare = sorted(name for name, reason in entries.items() if not reason)
    for title, names in (("unreached and not listed", new),
                         ("listed but reached or gone", gone),
                         ("listed without a reason", bare)):
        for name in names:
            print(f"{title}: {name}")
    print(f"{len(unreached)} unreached functions, {len(entries)} listed")
    return 1 if new or gone or bare else 0


if __name__ == "__main__":
    sys.exit(main())
