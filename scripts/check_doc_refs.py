#!/usr/bin/env python3
"""Check that the docs name only benchmarks, bench binaries, CLI verbs
and files that exist.

Usage: check_doc_refs.py [REPO_ROOT]

Scans README.md, EXPERIMENTS.md and docs/*.md under REPO_ROOT (default:
the parent of this script's directory) and reports every name that
points nowhere:

  * `BM_*` must appear in bench/*.cpp. A row that bench_speed names at
    run time ("BM_Kernel_" + alg + "_" + impl) counts when a string
    literal in bench/*.cpp ending in '_' is its prefix.
  * `bench_*` must be a bench/*.cpp binary or a scripts/* file. With an
    extension that is not a source file's (bench_output.txt), it is an
    output file, and a script under scripts/ must name it.
  * `cksumlab <verb>` and `faultlab <verb>` inside code (inline spans
    and fenced blocks) must be a verb that the tool's main() dispatches
    in tools/<tool>.cpp.
  * A relative Markdown link `[text](target)` outside code must resolve,
    from the linking file's directory, to a file or directory (any
    `#anchor` is ignored; links with a scheme and bare anchors are not
    checked).

Prints one `file:line: name: reason` per problem and exits 1 if there
are any, 0 otherwise.
"""

import glob
import os
import re
import sys

BM_RE = re.compile(r"\bBM_[A-Za-z0-9_]+")
BENCH_RE = re.compile(r"\bbench_[a-z0-9_]+(?:\.[a-z]+)?")
VERB_RE = re.compile(r"\b(cksumlab|faultlab)[ \t]+([a-z][a-z0-9-]*)")
LINK_RE = re.compile(r"\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")
SCHEME_RE = re.compile(r"[A-Za-z][A-Za-z0-9+.-]*:")
SOURCE_EXTS = {".cpp", ".hpp", ".py", ".sh"}


def read(path):
    with open(path, encoding="utf-8") as f:
        return f.read()


def dispatched_verbs(tool_src):
    """The verbs main() compares its first argument against."""
    main = tool_src[tool_src.index("int main("):]
    return set(re.findall(r'cmd == "([a-z-]+)"', main))


def code_spans(text):
    """(line number, code) pairs: each line inside a fenced block, and
    each inline code span outside one."""
    fenced = False
    for n, line in enumerate(text.splitlines(), 1):
        if line.lstrip().startswith("```"):
            fenced = not fenced
        elif fenced:
            yield n, line
        else:
            for span in re.findall(r"`([^`]+)`", line):
                yield n, span


def link_targets(text):
    """(line number, target) pairs: each Markdown link target outside
    fenced blocks and inline code spans."""
    fenced = False
    for n, line in enumerate(text.splitlines(), 1):
        if line.lstrip().startswith("```"):
            fenced = not fenced
        elif not fenced:
            for target in LINK_RE.findall(re.sub(r"`[^`]*`", "", line)):
                yield n, target


def main():
    root = (sys.argv[1] if len(sys.argv) > 1 else
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    bench_srcs = sorted(glob.glob(os.path.join(root, "bench", "*.cpp")))
    bench_text = "\n".join(read(p) for p in bench_srcs)
    bench_words = set(re.findall(r"\bBM_[A-Za-z0-9_]+", bench_text))
    bm_prefixes = set(re.findall(r'"(BM_[A-Za-z0-9_]*_)"', bench_text))
    bench_bins = {os.path.splitext(os.path.basename(p))[0]
                  for p in bench_srcs}
    script_paths = sorted(glob.glob(os.path.join(root, "scripts", "*")))
    script_files = {os.path.basename(p) for p in script_paths}
    script_stems = {os.path.splitext(f)[0] for f in script_files}
    # Skip this file: its docstring names an output only as an example.
    script_text = "\n".join(read(p) for p in script_paths
                            if os.path.basename(p) != "check_doc_refs.py")
    verbs = {tool: dispatched_verbs(
                 read(os.path.join(root, "tools", tool + ".cpp")))
             for tool in ("cksumlab", "faultlab")}

    def bm_problem(name):
        if name in bench_words:
            return None
        if any(name.startswith(p) for p in bm_prefixes):
            return None
        return "not defined in bench/*.cpp"

    def bench_problem(name):
        stem, ext = os.path.splitext(name)
        if not ext:
            return (None if stem in bench_bins or stem in script_stems
                    else "no bench/*.cpp or scripts/* of that name")
        if ext in SOURCE_EXTS:
            return (None if os.path.exists(os.path.join(root, "bench", name))
                    or name in script_files
                    else "no such file under bench/ or scripts/")
        return (None if re.search(r"\b" + re.escape(name) + r"\b",
                                  script_text)
                else "no script under scripts/ writes it")

    docs = [os.path.join(root, "README.md"),
            os.path.join(root, "EXPERIMENTS.md")]
    docs += sorted(glob.glob(os.path.join(root, "docs", "*.md")))
    problems = []
    checked = 0
    for doc in docs:
        text = read(doc)
        rel = os.path.relpath(doc, root)
        for n, line in enumerate(text.splitlines(), 1):
            for regex, check in ((BM_RE, bm_problem),
                                 (BENCH_RE, bench_problem)):
                for name in regex.findall(line):
                    checked += 1
                    why = check(name)
                    if why:
                        problems.append(f"{rel}:{n}: {name}: {why}")
        for n, code in code_spans(text):
            for tool, verb in VERB_RE.findall(code):
                checked += 1
                if verb not in verbs[tool]:
                    problems.append(f"{rel}:{n}: {tool} {verb}: not a verb "
                                    f"tools/{tool}.cpp dispatches")
        for n, target in link_targets(text):
            path = target.split("#", 1)[0]
            if not path or SCHEME_RE.match(path):
                continue
            checked += 1
            base = root if path.startswith("/") else os.path.dirname(doc)
            if not os.path.exists(os.path.join(base, path.lstrip("/"))):
                problems.append(f"{rel}:{n}: {target}: links to no file")

    for p in problems:
        print(p)
    print(f"check_doc_refs: {checked} names in {len(docs)} files, "
          f"{len(problems)} point nowhere")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
