"""Fresh-process probe used by ``run.py`` for ``setup_s`` and ``peak_rss_mb``.

    python3 bench/fresh.py <src dir> setup|run <powertrack arguments...>

Imports ``powertrack.cli``, loads the workload's config exactly as the CLI
would, and prints ``ready``.  With ``run`` it then runs the command, prints
``maxrss_kb <n>`` (this process's peak resident set) and exits with the
command's exit code.
"""

import contextlib
import io
import resource
import sys


def main() -> int:
    src, mode, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    sys.path.insert(0, src)
    import powertrack.cli as cli
    from powertrack.experiments import load_config, scenario_from_config

    args = cli.build_parser().parse_args(argv)
    scenario_from_config(load_config(args.config), preset_name=args.preset,
                         seed=args.seed, paths=args.paths)
    print("ready", flush=True)
    if mode != "run":
        return 0
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    print("maxrss_kb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
          flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
