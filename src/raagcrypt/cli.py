"""Command-line surface.

Subcommands: graph gen|validate, word check|sample, deal-nn, deal-tn,
decode-share, reconstruct-nn, reconstruct-tn, auth keygen|prove|verify|
simulate, bench word.

Exit codes: 0 success or protocol accept, 1 semantic negative (word
nontrivial, verification reject, validation or reconstruction mismatch),
2 usage or format error. Every randomized subcommand requires an
explicit --seed; there is no ambient randomness and no environment
configuration, so identical invocations produce byte-identical outputs.
"""

from __future__ import annotations

import argparse
import random
import sys
from pathlib import Path

from . import analyze, auth, bench, sharing
from .graphs import (
    GraphError,
    _directives,
    format_graph,
    format_map_lines,
    parse_graph,
    parse_map_lines,
    random_graph,
    read_graph_text,
    validate_graph,
)
from .raag import Raag, is_trivial, sample_nontrivial_word, sample_trivial_word
from .words import format_word, parse_word

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
# the run directory auth prove writes and auth verify reads: round i's two files, the transcript
ROUND_FILES = ("round{}_commitment.txt", "round{}_response.txt")
TRANSCRIPT_FILE = "transcript.txt"


def _read(path: str) -> str:
    return Path(path).read_text(encoding="utf-8")


def _write(path: Path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _emit(text: str, out: str | None) -> None:
    if out:
        _write(Path(out), text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# graph


def cmd_graph_gen(args) -> int:
    g = random_graph(args.vertices, args.edge_prob, args.seed)
    _emit(format_graph(g), args.out)
    return EXIT_OK


def cmd_graph_validate(args) -> int:
    violations = validate_graph(*read_graph_text(_read(args.file)))
    if not violations:
        print("ok")
        return EXIT_OK
    for v in violations:
        print(v)
    return EXIT_NEGATIVE


# ---------------------------------------------------------------------------
# word


def cmd_word_check(args) -> int:
    g = Raag(parse_graph(_read(args.graph)))
    w = parse_word(_read(args.word))
    if is_trivial(g, w):
        print("trivial")
        return EXIT_OK
    print("nontrivial")
    return EXIT_NEGATIVE


def cmd_word_sample(args) -> int:
    g = Raag(parse_graph(_read(args.graph)))
    sample = sample_trivial_word if args.kind == "trivial" else sample_nontrivial_word
    _emit(format_word(sample(g, args.length, args.seed)) + "\n", args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# sharing


def _parse_bits(text: str) -> sharing.BitColumn:
    return sharing.bit_column({"0": 0, "1": 1}.get(ch) for ch in text)


def _write_shares(out_dir: str, shares) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for share in shares:
        _write(out / f"share_p{share.participant}.txt", sharing.format_share(share))
        _write(out / f"secret_graph_p{share.participant}.txt", format_graph(share.graph))
    print(f"wrote {len(shares)} shares to {out}")


def cmd_deal_nn(args) -> int:
    secret = _parse_bits(args.secret)
    rng = random.Random(args.seed)  # a graph seed, then a deal seed: one seed must not feed both
    setup = sharing.random_dealer_setup_nn(args.participants, len(secret), args.generators,
                                           args.edge_prob, rng.getrandbits(64))
    _write_shares(args.out_dir, sharing.deal_nn(setup, secret, rng.getrandbits(64),
                                                word_length=args.word_length))
    return EXIT_OK


def cmd_deal_tn(args) -> int:
    rng = random.Random(args.seed)  # as in cmd_deal_nn
    graphs = sharing.random_participant_graphs(args.participants, args.generators,
                                               args.edge_prob, rng.getrandbits(64))
    _, shares = sharing.deal_tn(graphs, args.secret, args.prime, args.threshold,
                                rng.getrandbits(64), k=args.bits, word_length=args.word_length)
    _write_shares(args.out_dir, shares)
    return EXIT_OK


def cmd_decode_share(args) -> int:
    graph = parse_graph(_read(args.graph))
    share = sharing.parse_share(_read(args.share), graph)
    if isinstance(share, sharing.ShareTN):
        _, value = sharing.decode_share_tn(share)
        bits = sharing.int_to_bits(value, len(share.words))
        tail = f"p {share.p}\nt {share.t}\nvalue {value}\n"
    else:
        bits, tail = sharing.decode_share_nn(share), ""
    _emit(f"scheme {share.scheme}\nparticipant {share.participant}\n"
          f"bits {''.join(map(str, bits))}\n{tail}", args.out)
    return EXIT_OK


def _parse_decoded(path: str, scheme: str) -> tuple[sharing.BitColumn, dict[str, int]]:
    """A decoded share's bits and its ``participant``, ``p`` and ``t`` values, each a
    positive integer; ``tn`` needs all three and ``nn`` takes no ``p`` or ``t``. A
    ``value`` line must equal the bits, and any other key is refused. Errors name the file."""
    try:
        fields: dict[str, str] = {}
        for lineno, (key, *value) in _directives(_read(path)):
            if len(value) != 1:
                raise sharing.SharingError(f"line {lineno}: expected '<key> <value>'")
            if key in fields:
                raise sharing.SharingError(f"repeated '{key}' line")
            fields[key] = value[0]
        if fields.get("scheme", scheme) != scheme:
            raise sharing.SharingError(f"expected 'scheme {scheme}', "
                                       f"got 'scheme {fields['scheme']}'")
        header = ("participant", "p", "t") if scheme == "tn" else ()
        for key in fields:
            if key not in ("scheme", "participant", "bits", "value") + header:
                raise sharing.SharingError(f"unknown '{key}' line")
        for key in ("scheme", "bits") + header:
            if key not in fields:
                raise sharing.SharingError(f"missing '{key}' line")
        bits = _parse_bits(fields["bits"])
        values = {key: sharing.positive_int(key, fields[key])
                  for key in ("participant", "p", "t") if key in fields}
        value = fields.get("value")
        if value is not None and (not value.isdecimal()
                                  or int(value) != sharing.bits_to_int(bits)):
            raise sharing.SharingError(f"'value {value}' disagrees with 'bits {fields['bits']}'")
    except sharing.SharingError as e:
        raise sharing.SharingError(f"{path}: {e}") from None
    return bits, values


def _report_secret(secret, expect) -> int:
    print(secret)
    if expect is not None and secret != expect:
        print(f"mismatch: expected {expect}", file=sys.stderr)
        return EXIT_NEGATIVE
    return EXIT_OK


def cmd_reconstruct_nn(args) -> int:
    columns, holders = [], {}  # a repeated column would cancel out of the XOR
    for path in args.files:
        bits, values = _parse_decoded(path, "nn")
        who = values.get("participant")
        if who in holders:
            raise sharing.SharingError(f"{holders[who]} and {path} both hold participant {who}")
        if who is not None:
            holders[who] = path
        columns.append(bits)
    return _report_secret("".join(map(str, sharing.reconstruct_nn(columns))), args.expect)


def cmd_reconstruct_tn(args) -> int:
    points = []
    p = t = None
    for path in args.files:
        bits, values = _parse_decoded(path, "tn")
        if p is None:
            p, t = values["p"], values["t"]
        elif (values["p"], values["t"]) != (p, t):
            raise sharing.SharingError(f"{path}: inconsistent p or t across shares")
        points.append((values["participant"], sharing.bits_to_int(bits)))
    off = sharing.points_off_polynomial(points, p, t)  # checks every share, not only t
    if off:
        lowest = ", ".join(str(i) for i, _ in sorted(points)[:t])
        print(f"inconsistent shares: off the polynomial through participants {lowest}: "
              + ", ".join(f"participant {i}" for i in off), file=sys.stderr)
        return EXIT_NEGATIVE
    return _report_secret(sharing.lagrange_reconstruct(points, p, t), args.expect)


# ---------------------------------------------------------------------------
# auth


def _keygen(args, seed: int):  # a key of the named class, so its files carry that scheme name
    cls = auth.KEY_PAIRS[args.scheme]
    return cls(*cls.keygen(*(getattr(args, size) for size in cls.sizes), seed)._values())


def cmd_auth_keygen(args) -> int:
    key = _keygen(args, args.seed)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    _write(out / "public_key.txt", auth.format_public_key(key))
    _write(out / "private_key.txt", auth.format_private_key(key))
    print(f"wrote key pair to {out}")
    return EXIT_OK


def cmd_auth_prove(args) -> int:
    public = auth.parse_public_key(_read(args.public))  # read first: its errors come first
    key = auth._parse_key_pair(_read(args.private), public)
    transcript = auth.run_protocol(key.scheme, key, args.rounds, "honest",
                                   prover_seed=args.seed,
                                   verifier_seed=args.challenge_seed)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for i, state in enumerate(transcript.rounds, start=1):
        commitment_path, response_path = (out / name.format(i) for name in ROUND_FILES)
        _write(commitment_path, format_graph(state.commitment))
        response = getattr(state.response, "assignment", state.response)  # a hom VertexMap
        _write(response_path, format_map_lines(response, state.commitment.vertices))
    _write(out / TRANSCRIPT_FILE, auth.format_transcript(transcript))
    print(f"wrote {len(transcript.rounds)} rounds to {out}")
    return EXIT_OK if transcript.accept else EXIT_NEGATIVE


def cmd_auth_verify(args) -> int:
    auth._check_rounds(args.rounds)
    public = auth.parse_public_key(_read(args.public))
    rounds, _ = auth.parse_transcript(_read(Path(args.dir) / TRANSCRIPT_FILE))
    if len(rounds) != args.rounds:
        # the soundness error 2^-r is the verifier's to fix, not the transcript's
        print(f"reject: transcript has {len(rounds)} rounds, verifier requires {args.rounds}")
        sys.stdout.write(auth.format_transcript(auth.Transcript(public[0], (), False)))
        return EXIT_NEGATIVE
    *_, verify = auth.KEY_PAIRS[public[0]].steps(*public[1:])
    # every round file is read before the first verdict, so a missing one prints nothing
    messages = [[_read(Path(args.dir) / name.format(i)) for name in ROUND_FILES]
                for i, _, _ in rounds]
    states = []
    for (_, challenge, _), (commitment, response) in zip(rounds, messages):
        try:
            verdict = verify(parse_graph(commitment), challenge, parse_map_lines(response))
        except GraphError:
            verdict = False  # both are the prover's messages: malformed is a rejection
        states.append(auth.RoundState(None, None, challenge, None, verdict))
    accept = all(state.verdict for state in states)
    sys.stdout.write(auth.format_transcript(auth.Transcript(public[0], tuple(states), accept)))
    return EXIT_OK if accept else EXIT_NEGATIVE


def cmd_auth_simulate(args) -> int:
    rng = random.Random(args.seed)
    key = _keygen(args, rng.getrandbits(64))
    rate = auth.acceptance_rate(args.scheme, key, args.strategy, args.rounds,
                                args.trials, rng.getrandbits(64))
    print(analyze.AttackRecord(args.strategy, (("rounds", args.rounds),), args.trials,
                               round(rate * args.trials)).line())
    return EXIT_OK


# ---------------------------------------------------------------------------
# bench


def cmd_bench_word(args) -> int:
    graph = parse_graph(_read(args.graph))
    lengths = [int(x) for x in args.lengths.split(",") if x]
    result = bench.run_word_benchmark(graph, lengths, args.repetitions, args.seed)
    if args.json:
        import json  # here, so that no other command pays for its import
        points = [{"length": p.length, "mean_s": p.mean, "samples_s": list(p.samples),
                   "ns_per_letter": p.mean / p.length * 1e9,
                   "min_ns_per_letter": min(p.samples) / p.length * 1e9} for p in result.points]
        print(json.dumps({"points": points, "loglog_slope": result.slope}))
        return EXIT_OK
    print(f"{'length':>10} {'mean_s':>12}  samples_s")
    for point in result.points:
        samples = " ".join(f"{s:.6f}" for s in point.samples)
        print(f"{point.length:>10} {point.mean:>12.6f}  {samples}")
    print(f"loglog_slope {result.slope:.4f}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="raagcrypt",
                                     description="RAAG word problem, secret sharing, and authentication tools")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("graph", help="graph utilities")
    gsub = p.add_subparsers(dest="graph_command", required=True)
    g = gsub.add_parser("gen", help="generate a random graph")
    g.add_argument("--vertices", type=int, required=True)
    g.add_argument("--edge-prob", type=float, required=True)
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--out")
    g.set_defaults(func=cmd_graph_gen)
    g = gsub.add_parser("validate", help="check a graph file against the invariants")
    g.add_argument("file")
    g.set_defaults(func=cmd_graph_validate)

    p = sub.add_parser("word", help="word utilities")
    wsub = p.add_subparsers(dest="word_command", required=True)
    w = wsub.add_parser("check", help="decide triviality of a word in the graph's group")
    w.add_argument("graph")
    w.add_argument("word")
    w.set_defaults(func=cmd_word_check)
    w = wsub.add_parser("sample", help="sample a trivial or nontrivial word")
    w.add_argument("--graph", required=True)
    w.add_argument("--kind", choices=("trivial", "nontrivial"), required=True)
    w.add_argument("--length", type=int, required=True)
    w.add_argument("--seed", type=int, required=True)
    w.add_argument("--out")
    w.set_defaults(func=cmd_word_sample)

    p = sub.add_parser("deal-nn", help="deal an (n,n) XOR-split secret as word columns")
    p.add_argument("--secret", required=True, help="bit string, e.g. 1011")
    p.add_argument("--participants", type=int, required=True)
    p.add_argument("--generators", type=int, required=True)
    p.add_argument("--edge-prob", type=float, default=0.5)
    p.add_argument("--word-length", type=int, default=sharing.DEFAULT_WORD_LENGTH)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_deal_nn)

    p = sub.add_parser("deal-tn", help="deal a (t,n) Shamir-split secret as word columns")
    p.add_argument("--secret", type=int, required=True)
    p.add_argument("--prime", type=int, required=True)
    p.add_argument("--threshold", type=int, required=True)
    p.add_argument("--participants", type=int, required=True)
    p.add_argument("--generators", type=int, required=True)
    p.add_argument("--bits", type=int, default=None)
    p.add_argument("--edge-prob", type=float, default=0.5)
    p.add_argument("--word-length", type=int, default=sharing.DEFAULT_WORD_LENGTH)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_deal_tn)

    p = sub.add_parser("decode-share", help="decode a share file with its secret graph")
    p.add_argument("--share", required=True)
    p.add_argument("--graph", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_decode_share)

    p = sub.add_parser("reconstruct-nn", help="XOR decoded columns back into the secret")
    p.add_argument("files", nargs="+")
    p.add_argument("--expect", help="bit string to compare against")
    p.set_defaults(func=cmd_reconstruct_nn)

    p = sub.add_parser("reconstruct-tn", help="interpolate the secret from decoded shares")
    p.add_argument("files", nargs="+")
    p.add_argument("--expect", type=int)
    p.set_defaults(func=cmd_reconstruct_tn)

    p = sub.add_parser("auth", help="authentication schemes")
    key_sizes = {size: n for cls in auth.KEY_PAIRS.values() for size, n in cls.sizes.items()}
    asub = p.add_subparsers(dest="auth_command", required=True)
    a = asub.add_parser("keygen", help="generate a planted key pair")
    a.add_argument("--scheme", choices=tuple(auth.KEY_PAIRS), required=True)
    a.add_argument("--seed", type=int, required=True)
    a.add_argument("--out-dir", required=True)
    for size, default in key_sizes.items():
        a.add_argument("--" + size.replace("_", "-"), type=int, default=default)
    a.set_defaults(func=cmd_auth_keygen)
    a = asub.add_parser("prove", help="run the honest prover, writing round files")
    a.add_argument("--public", required=True)
    a.add_argument("--private", required=True)
    a.add_argument("--rounds", type=int, required=True)
    a.add_argument("--seed", type=int, required=True)
    a.add_argument("--challenge-seed", type=int, required=True)
    a.add_argument("--out-dir", required=True)
    a.set_defaults(func=cmd_auth_prove)
    a = asub.add_parser("verify", help="re-verify a recorded protocol run")
    a.add_argument("--public", required=True)
    a.add_argument("--dir", required=True)
    a.add_argument("--rounds", type=int, required=True)
    a.set_defaults(func=cmd_auth_verify)
    a = asub.add_parser("simulate", help="estimate acceptance rates for prover strategies")
    a.add_argument("--scheme", choices=tuple(auth.KEY_PAIRS), required=True)
    a.add_argument("--strategy", choices=auth.STRATEGIES, required=True)
    a.add_argument("--rounds", type=int, required=True)
    a.add_argument("--trials", type=int, required=True)
    a.add_argument("--seed", type=int, required=True)
    for size, default in key_sizes.items():
        a.add_argument("--" + size.replace("_", "-"), type=int, default=default)
    a.set_defaults(func=cmd_auth_simulate)

    p = sub.add_parser("bench", help="benchmarks")
    bsub = p.add_subparsers(dest="bench_command", required=True)
    b = bsub.add_parser("word", help="time the solver across word lengths and fit a slope")
    b.add_argument("--graph", required=True)
    b.add_argument("--lengths", required=True, help="comma-separated, ascending, even")
    b.add_argument("--repetitions", type=int, default=5)
    b.add_argument("--seed", type=int, required=True)
    b.add_argument("--json", action="store_true", help="print one JSON object instead of the table")
    b.set_defaults(func=cmd_bench_word)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
