"""Run the README's command-line examples and compare their stdout.

Usage: python3 .github/readme_examples.py

Each example in a ``sh`` block of the README's "Command line" section is a
``$ malcev5 ...`` line followed by its expected stdout, one example per
paragraph.  Fails when no example is found or when any stdout differs; a
failing example is printed with its return code and stderr, and exit code
127 is named as the shell's "command not found".
"""

import re
import subprocess
import sys

readme = open("README.md", encoding="utf-8").read()
section = readme.split("\n## Command line\n", 1)[1].split("\n### ", 1)[0]
examples = [example.split("\n") for block in re.findall(r"```sh\n(.*?)```", section, re.S)
            for example in block.strip().split("\n\n")]
failed = not examples
for command, *expected in examples:
    assert command.startswith("$ malcev5 "), command
    # through the shell, so a trailing "# ..." is a comment
    run = subprocess.run(command[2:], shell=True, capture_output=True, text=True)
    if run.stdout.splitlines() != expected:
        failed = True
        code = f"{run.returncode} (command not found)" if run.returncode == 127 else run.returncode
        print(f"{command}\n  README: {expected}\n  stdout: {run.stdout.splitlines()}"
              f"\n  exit code: {code}\n  stderr: {run.stderr.splitlines()}")
print(f"{len(examples)} examples")
sys.exit(1 if failed else 0)
