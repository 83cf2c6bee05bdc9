"""The CLI's input files, one table: a name means one file in every CLI table and test and in
tools/same_output.py and tools/load_cost.py.  conftest.py's `files` writes them once a run."""

from pathlib import Path

FILES = {
    # forms, tensors, frames, vectors and matrices of integers
    "w0": "kform k=0\n : -4\n",
    "w1": "kform k=1\n1 : 2\n4 : -3\n",
    "w2": "kform k=2\n2 1 : -1\n1 3 : 3\n2 3 : -2\n3 3 : 7\n",
    "w3": "kform k=3\n1 2 3 : 1\n2 3 4 : -5\n1 2 4 : 12\n",
    "w4": "kform k=4\n1 2 3 4 : 2\n",
    "w7": "kform k=7\n1 2 3 4 5 6 7 : 1\n",
    "w9": "kform k=9\n1 2 3 4 5 6 7 8 9 : 1\n",
    "w11": "kform k=11\n1 2 3 4 5 6 7 8 9 10 11 : 1\n",
    "wz": "kform k=2\nzero k=2\n",
    "dx1": "kform k=1\n1 : 1\n",
    "dx3": "kform k=1\n3 : 1\n",
    "dx12": "kform k=2\n1 2 : 1\n",
    "w24": "kform k=2\n2 4 : 2\n",
    "w1a": "kform k=1\n5 : 2\n",
    "w1s": "kform k=1\n3 : 1\n5 : 2\n",
    "w2a": "kform k=2\n1 2 : 1\n1 3 : 5\n",
    "ten1": "kform k=1\n2 : 10\n",
    "t1": "ktensor k=1\n2 : 5\n",
    "t2": "ktensor k=2\n1 1 : 2\n2 1 : -1\n3 2 : 1\n1 26 : -7\n",
    "t2a": "ktensor k=2\n1 1 : 2\n2 1 : 3\n",
    "t2b": "ktensor k=2\n1 2 : 1\n2 3 : 2\n3 4 : 3\n",
    "t10": "ktensor k=10\n1 2 3 4 5 6 7 8 9 10 : 1\n",
    "t27": "ktensor k=2\n1 27 : 3\n",
    "v": "1\n2\n0\n-1\n",
    "v2": "0 1\n",
    "v10": "10\n0\n",
    "vec3": "1 2 3\n",
    "col4": "1\n0\n2\n-1\n",
    "e2": "1 2\n0 -1\n3 1\n",
    "e2a": "1 4\n2 5\n",
    "e2b": "0 1\n1 0\n",
    "e3": "1 0 2\n0 1 1\n2 1 0\n1 1 1\n",
    "e10": "1\n2\n3\n4\n5\n6\n7\n8\n9\n10\n",
    "m": "1 2 0 1\n3 4 1 0\n0 1 2 3\n1 0 0 2\n",
    "m3": "1 2 0\n0 1 1\n2 0 1\n",
    "m3a": "1 4 7\n2 5 8\n3 6 9\n",
    "m4": "1 0 2 0\n0 1 0 1\n1 1 1 0\n0 2 0 1\n",
    "m10": "10 0\n0 10\n",
    "m32": "1 2\n0 1\n3 -1\n",
    # README's CLI examples, as K1.txt, K2.txt, dx3.txt and frame.txt there
    "K1": "kform k=3\n3 5 4 : 2\n4 6 1 : 7\n",
    "K2": "kform k=2\n1 3 : 1\n2 4 : 2\n3 5 : 3\n4 6 : 4\n5 7 : 5\n",
    "frame": "14\n15\n16\n",
    # fractions, results that overflow, and empty objects of an arity nothing can expand
    "w1small": "kform k=1\n1 : 1\n2 : 0.4\n",
    "t3": "ktensor k=3\n1 2 4 : 3\n3 3 1 : 0.25\n",
    "big": "kform k=1\n1 : 1e308\n2 : -1e308\n",
    "big2": "kform k=2\n1 2 : 1e308\n",
    "wzhuge": "kform k=1000000\nzero k=1000000\n",
    "tzhuge": "ktensor k=1000000\nzero k=1000000\n",
    # files every reader refuses, and a name with no file
    "ragged": "1 2\n3\n",
    "nancoef": "kform k=1\n1 : nan\n",
    "badcoef": "kform k=2\n1 2 : oops\n",
    "junk": "hello\n",
    "empty": "",
    "underscored": "kform k=2\n1_0 2_0 : 1_5\n",
    # an Arabic-Indic three, which int() reads as 3
    "arabic": "kform k=\u0663\n1 2 3 : 1\n",
    "underscoredrow": "1_0 2\n",
    # two term lines joined by U+2028, which str.splitlines() would read as a line break
    "linesep": "kform k=2\n1 2 : 1\u20282 3 : 4\n",
    "missing": None,
}


def write_inputs(directory) -> dict:
    """Write each file of FILES into directory under its name; -> name: path, for every name."""
    directory = Path(directory)
    for name, text in FILES.items():
        if text is not None:
            (directory / name).write_text(text, encoding="utf-8")
    return {name: str(directory / name) for name in FILES}
