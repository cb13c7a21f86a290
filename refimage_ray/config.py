"""Engine configuration.

Reference analog: env-driven ``Settings`` with fixed index parameters
(``/root/reference/src/refimage/config.py:50-55`` fixes index type and
model name the same way we fix BM25 constants and shuffle geometry).
All values are deterministic constants — no wall-clock, no randomness —
so that rebuilds and resumed builds produce byte-identical artifacts.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace


def engine_config_from_manifest(manifest_config: dict) -> "EngineConfig":
    """Analyzer-relevant EngineConfig of an existing artifact: the
    manifest's token_pattern/term_filter (split_pattern re-derived by
    ``__post_init__``).  Anything that re-tokenizes an artifact's
    corpus (LM training for the phrase suggester, re-index flows) MUST
    build its config through this, or build/query tokenization
    symmetry silently breaks on custom-analyzer indexes."""
    kw: dict = {"term_filter": manifest_config.get("term_filter", "none")}
    tp = manifest_config.get("token_pattern")
    if tp:
        kw["token_pattern"] = tp
    return EngineConfig(**kw)


@dataclass(frozen=True)
class EngineConfig:
    # --- BM25 scoring constants (fixed like the reference's index params) ---
    k1: float = 1.2
    b: float = 0.75

    # --- tokenizer ---
    # Normalization: lowercase, then extract [a-z0-9]+ runs.  Must be
    # identical at index and query time (reference analog: tag
    # normalization `tag.strip().lower()`, dsl.py:117, applied on both
    # the stored and the queried side).
    token_pattern: str = "[a-z0-9]+"
    split_pattern: str = "[^a-z0-9]+"  # inverse, for pc.split_pattern_regex
    # post-tokenize term transform (the Lucene analysis-chain analog):
    # a name from functions.text.TERM_FILTERS, persisted in the
    # manifest so query-side tokenization applies the SAME chain
    term_filter: str = "none"

    def __post_init__(self) -> None:
        from refimage_ray.functions.text import TERM_FILTERS

        if self.term_filter not in TERM_FILTERS:
            raise ValueError(
                f"unknown term_filter {self.term_filter!r}; "
                f"have {sorted(TERM_FILTERS)}"
            )
        # token_pattern (extract) and split_pattern (its complement,
        # used by the vectorized split path) MUST agree, or doc_len /
        # postings / query tokens silently diverge.  When exactly one
        # of the pair is customized and it is a simple character class,
        # derive the other; otherwise demand both.
        d_tok, d_split = "[a-z0-9]+", "[^a-z0-9]+"
        tok_custom = self.token_pattern != d_tok
        split_custom = self.split_pattern != d_split
        if tok_custom == split_custom:
            return
        import re as _re

        if tok_custom:
            m = _re.fullmatch(r"\[([^^\]][^\]]*)\]\+", self.token_pattern)
            if not m:
                raise ValueError(
                    "custom token_pattern needs a matching split_pattern "
                    "(could not derive the complement of "
                    f"{self.token_pattern!r})"
                )
            object.__setattr__(self, "split_pattern", f"[^{m.group(1)}]+")
        else:
            m = _re.fullmatch(r"\[\^([^\]]+)\]\+", self.split_pattern)
            if not m:
                raise ValueError(
                    "custom split_pattern needs a matching token_pattern "
                    "(could not derive the complement of "
                    f"{self.split_pattern!r})"
                )
            object.__setattr__(self, "token_pattern", f"[{m.group(1)}]+")

    # --- shuffle geometry (explicit partitioning, north_rule) ---
    num_shards: int = 32          # P: term shards; size ~4x cores for real runs
    salt_buckets: int = 8         # S: doc-range sub-buckets for hot terms
    hot_df_fraction: float = 0.05  # term is "hot" when df > fraction * N

    # --- posting-list layout ---
    block_size: int = 128         # postings per block for block-max metadata
    store_positions: bool = False  # per-posting token positions (phrase scale path)

    # --- doc id assignment ---
    docid_partitions: int = 64    # D: url-hash partitions for dense-id assignment
    docid_stride: int = 1 << 32   # doc_id = part * stride + local_rank

    def with_(self, **kw) -> "EngineConfig":
        return replace(self, **kw)


DEFAULT_CONFIG = EngineConfig()


# ---------------------------------------------------------------------------
# env-driven settings layer (reference analog: Settings built from env
# vars, /root/reference/src/refimage/config.py:1-103).  Precedence is
# flag > env > default: the CLI applies cli_env_defaults() as parser
# DEFAULTS (an explicit flag still wins), and fresh builds start from
# engine_config_from_env() so index parameters without a dedicated
# flag (k1, b, store_positions, ...) are still reachable.
# ---------------------------------------------------------------------------

ENV_PREFIX = "REFIMAGE_RAY_"


def _parse_env_value(raw: str, like) -> object:
    if isinstance(like, bool):
        return raw.strip().lower() in ("1", "true", "yes", "on")
    if isinstance(like, int):
        return int(raw)
    if isinstance(like, float):
        return float(raw)
    return raw


def engine_config_from_env(
    base: "EngineConfig | None" = None,
    environ: "dict | None" = None,
) -> "EngineConfig":
    """EngineConfig with every field overridable via
    ``REFIMAGE_RAY_<FIELD>`` (upper-cased field name): e.g.
    ``REFIMAGE_RAY_STORE_POSITIONS=1``, ``REFIMAGE_RAY_K1=0.9``.

    Only for FRESH builds — anything operating on an existing artifact
    must keep deriving its config from the manifest
    (:func:`engine_config_from_manifest`), or build/query tokenization
    symmetry breaks."""
    import os
    from dataclasses import fields

    env = os.environ if environ is None else environ
    base = DEFAULT_CONFIG if base is None else base
    kw = {}
    for f in fields(EngineConfig):
        raw = env.get(ENV_PREFIX + f.name.upper())
        if raw is not None:
            kw[f.name] = _parse_env_value(raw, getattr(base, f.name))
    return base.with_(**kw) if kw else base


#: CLI/serve argument dests that honor a ``REFIMAGE_RAY_*`` env
#: default (value = the parse type).  Path-ish settings mirror the
#: reference Settings' data-dir/model fields.
CLI_ENV_DESTS: dict[str, type] = {
    "num_cpus": int,
    "index": str,
    "registry": str,
    "alias": str,
    "port": int,
    "actors": int,
    "num_shards": int,
    "salt_buckets": int,
    "term_filter": str,
}


def cli_env_defaults(environ: "dict | None" = None) -> dict:
    """dest → value map from ``REFIMAGE_RAY_*`` for the CLI parser."""
    import os

    env = os.environ if environ is None else environ
    out = {}
    for dest, typ in CLI_ENV_DESTS.items():
        raw = env.get(ENV_PREFIX + dest.upper())
        if raw is not None:
            out[dest] = typ(raw)
    return out
