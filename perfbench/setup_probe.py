"""Time one fresh process's set-up: import ktae, build the config, make the warm-up call.

    python3 perfbench/setup_probe.py {library|cli} WARMUP_JSONL OUTPUT

``library`` builds the group of the first line and calls compute_advantages;
``cli`` runs ``ktae compute`` on the file. Prints the seconds taken. Reading
and decoding the warm-up input is the benchmark's work and is not timed.
"""

import json
import sys
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    mode, warmup, output = argv
    record = json.loads(Path(warmup).read_text(encoding="utf-8"))
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    started = time.perf_counter()
    import ktae

    config = ktae.KtaeConfig()
    if mode == "library":
        rollouts = tuple(ktae.Rollout(tuple(r["tokens"]), r["reward"]) for r in record["rollouts"])
        ktae.compute_advantages(ktae.RolloutGroup(record["group_id"], rollouts), config)
    else:
        from ktae import cli

        if cli.main(["compute", "--input", warmup, "--output", output]) != 0:
            return 1
    print(time.perf_counter() - started)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
