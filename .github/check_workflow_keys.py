"""Fail on repeated mapping keys in GitHub workflow and local action files.

YAML parsers, including the one GitHub uses, silently keep the last of two
equal keys, so a second job with an existing job id replaces the first.
This loader raises instead.

Usage: python3 .github/check_workflow_keys.py [FILE...]
(default: every .yml/.yaml file under .github/workflows, and every
action.yml/action.yaml under .github/actions)
"""

import glob
import sys

import yaml


class UniqueKeyLoader(yaml.SafeLoader):
    def construct_mapping(self, node, deep=False):
        seen = {}
        for key_node, _ in node.value:
            key = self.construct_object(key_node, deep=deep)
            if key in seen:
                raise yaml.constructor.ConstructorError(
                    "while constructing a mapping",
                    node.start_mark,
                    f"duplicate key {key!r} (first at line {seen[key] + 1})",
                    key_node.start_mark,
                )
            seen[key] = key_node.start_mark.line
        return super().construct_mapping(node, deep=deep)


def main(paths):
    paths = paths or sorted(
        glob.glob(".github/workflows/*.yml")
        + glob.glob(".github/workflows/*.yaml")
        + glob.glob(".github/actions/**/action.yml", recursive=True)
        + glob.glob(".github/actions/**/action.yaml", recursive=True)
    )
    failed = False
    for path in paths:
        with open(path) as f:
            try:
                yaml.load(f, Loader=UniqueKeyLoader)
            except yaml.YAMLError as e:
                print(f"{path}: {e}", file=sys.stderr)
                failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
