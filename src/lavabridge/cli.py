"""Command-line front end.

Subcommands:
    gen-demos    collect scripted-expert demonstrations into an archive CSV
    train        run one seeded training job
    eval         score a run's checkpoint.npz from the ID or OOD start set
    sweep        run a config across seeds in parallel and aggregate
    safety-map   dump a Monte Carlo safety field over a position grid; the
                 rollout horizon and count are the config's sampler.k_safety
                 and sampler.n_safety_rollouts
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import bench
from .checkpoint import load_checkpoint
from .config import load_run_config
from .demos import generate_demos, save_archive
from .learner import SACLearner
from .rngs import substream
from .safety import safety_field, save_safety_field_csv


def _int_at_least(low: int, what: str):
    """argparse type of an integer flag that is at least ``low``, checked at parse time."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"expected {what}, got {value}")
        return value

    return parse


_count = _int_at_least(1, "a positive integer")
_seed = _int_at_least(0, "a non-negative integer")


def _add_config_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", type=Path, default=None, help="flat key=value config file")


def _learner_from_checkpoint(path: Path, cfg) -> SACLearner:
    nets = load_checkpoint(path)
    try:
        policy = nets["policy"]
    except KeyError:
        raise SystemExit(f"{path} holds no policy network")
    hidden = tuple(w.shape[-1] for w in policy[0::2][:-1])
    dtype = policy[0].dtype
    if dtype.name not in ("float32", "float64"):
        raise SystemExit(f"{path}: network 'policy' array 0 has dtype {dtype}, "
                         "expected float32 or float64")
    # Shape and dtype come from the checkpoint, not from --config, so the
    # arrays load without a cast.
    learner_cfg = replace(cfg.learner, hidden=hidden, dtype=dtype.name)
    learner = SACLearner(learner_cfg, init_rng=substream(0, "learner-init"),
                         noise_rng=substream(0, "learner-noise"), f_max=cfg.env.f_max)
    for name, params in learner.named_networks().items():
        if name not in nets:
            continue
        saved = nets[name]
        if len(saved) != len(params):
            raise SystemExit(f"{path}: network {name!r} holds {len(saved)} arrays, "
                             f"the learner has {len(params)}")
        for i, (p, q) in enumerate(zip(params, saved)):
            if p.shape != q.shape:
                raise SystemExit(f"{path}: network {name!r} array {i} has shape {q.shape}, "
                                 f"the learner expects {p.shape}")
            if p.dtype != q.dtype:
                raise SystemExit(f"{path}: network {name!r} array {i} has dtype {q.dtype}, "
                                 f"the policy's array 0 has {p.dtype}")
            p[...] = q
    return learner


def cmd_gen_demos(args) -> int:
    cfg = load_run_config(args.config, {"run.method": "sac"})
    env = cfg.env.build(cfg.horizon)
    archive = generate_demos(env, args.n, args.seed)
    save_archive(archive, args.out)
    print(f"wrote {archive.n_transitions} transitions "
          f"({len(archive.trajectories)} trajectories) to {args.out}")
    return 0


def cmd_train(args) -> int:
    overrides = {"run.seed": str(args.seed)} if args.seed is not None else {}
    cfg = load_run_config(args.config, overrides)
    result = bench.run_training(cfg, out_dir=args.out_dir, verbose=not args.quiet)
    last = result.evals[-1]
    print(f"done: {result.env_steps} env steps, {result.episodes} episodes, "
          f"final id={last.id_success:.2f} ood={last.ood_success:.2f}")
    return 0


def cmd_eval(args) -> int:
    cfg = load_run_config(args.config, {"run.method": "sac"})
    env = cfg.env.build(cfg.horizon)
    learner = _learner_from_checkpoint(args.checkpoint, cfg)
    which = {"id": "p0", "ood": "ood"}[args.dist]
    rng = substream(args.seed, "eval", 0)
    success, ret = bench.evaluate(learner, env, which, args.episodes, cfg.horizon,
                                  cfg.learner.gamma, rng)
    print(f"{args.dist}: success_rate={success:.3f} mean_return={ret:.4f} "
          f"over {args.episodes} episodes")
    return 0


def cmd_sweep(args) -> int:
    cfg = load_run_config(args.config)
    seeds = [cfg.seed + i for i in range(args.seeds)]
    agg = bench.sweep(cfg, seeds, args.out_dir, jobs=args.jobs, verbose=not args.quiet)
    print(f"aggregate written to {agg}")
    return 0


def cmd_safety_map(args) -> int:
    cfg = load_run_config(args.config, {"run.method": "sac"})
    env = cfg.env.build(cfg.horizon)
    rng = substream(args.seed, "sampler", 2)
    rows = safety_field(env, cfg.sampler.k_safety, cfg.sampler.n_safety_rollouts, rng,
                        nx=args.grid, ny=args.grid)
    save_safety_field_csv(args.out, rows)
    print(f"wrote {len(rows)} cells to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="lavabridge", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-demos", help="generate scripted-expert demonstrations")
    p.add_argument("--n", type=_count, required=True, help="number of transitions to keep")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", type=Path, required=True)
    _add_config_arg(p)
    p.set_defaults(func=cmd_gen_demos)

    p = sub.add_parser("train", help="run one training job")
    _add_config_arg(p)
    p.add_argument("--seed", type=_seed, default=None, help="override run.seed")
    p.add_argument("--out-dir", type=Path, required=True)
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--checkpoint", type=Path, required=True)
    p.add_argument("--dist", choices=("id", "ood"), default="id")
    p.add_argument("--episodes", type=_count, default=100)
    p.add_argument("--seed", type=_seed, default=0)
    _add_config_arg(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="run a config across seeds")
    _add_config_arg(p)
    p.add_argument("--seeds", type=_count, default=5, help="number of seeds (run.seed, run.seed+1, ...)")
    p.add_argument("--jobs", type=_count, default=1, help="concurrent jobs")
    p.add_argument("--out-dir", type=Path, required=True)
    p.add_argument("--quiet", action="store_true")
    p.set_defaults(func=cmd_sweep)

    about = ("dump a safety field CSV; the rollout horizon and count come from --config "
             "(sampler.k_safety, sampler.n_safety_rollouts)")
    p = sub.add_parser("safety-map", help=about, description=about)
    p.add_argument("--grid", type=_count, default=50, help="cells per axis")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", type=Path, required=True)
    _add_config_arg(p)
    p.set_defaults(func=cmd_safety_map)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
