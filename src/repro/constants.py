"""Paper constants and protocol parameters.

Every number here is taken from the Colibri paper (CoNEXT 2021); the
section that defines it is cited next to each constant. Tests assert the
values so accidental drift from the paper is caught.
"""

from __future__ import annotations

# --------------------------------------------------------------------------
# Traffic split (§3.4): fixed minimum share of link capacity per class.
# Best-effort always keeps at least 20 %; Colibri control traffic (SegR
# renewals, EER setup over SegRs) gets 5 %; EER data traffic gets 75 %.
# Unused Colibri bandwidth is scavenged by best-effort.
# --------------------------------------------------------------------------
BEST_EFFORT_SHARE = 0.20
CONTROL_SHARE = 0.05
EER_SHARE = 0.75

# --------------------------------------------------------------------------
# Reservation lifetimes.
# SegRs are intermediate-term, "valid for approximately five minutes"
# (§3.3).  EERs are short-term with "a fixed validity period (16 seconds
# in our implementation)" (§3.3).
# --------------------------------------------------------------------------
SEGR_LIFETIME = 300.0  # seconds
EER_LIFETIME = 16.0  # seconds

# Renewal-request rate limiting at CServs, "e.g., to one per second" (§4.2).
EER_RENEWAL_MIN_INTERVAL = 1.0  # seconds

# --------------------------------------------------------------------------
# Cryptography (§4.5).
# HVFs and SegR tokens are MACs truncated to the first l_hvf bytes;
# "we use l_hvf = 4".  HopAuths (Eq. 4) are NOT truncated: full MAC length.
# --------------------------------------------------------------------------
L_HVF = 4  # bytes
MAC_LENGTH = 16  # bytes, AES-128-CBC-MAC block size stand-in

# DRKey AS-level key validity "on the order of a day" (§2.3).
DRKEY_VALIDITY = 24 * 3600.0  # seconds

# --------------------------------------------------------------------------
# Time synchronization (§2.3): "we assume that all ASes are synchronized
# within ±0.1 seconds".
# --------------------------------------------------------------------------
MAX_CLOCK_SKEW = 0.1  # seconds

# Packet-freshness acceptance window at border routers.  The timestamp Ts
# is relative to ExpT (§4.3); routers accept packets whose Ts is within
# the reservation lifetime plus clock skew.
FRESHNESS_WINDOW = 2 * MAX_CLOCK_SKEW + 1.0  # seconds

# --------------------------------------------------------------------------
# Segment / path structure (§2.2, §4.4).
# An end-to-end path combines at most one up-, one core-, and one
# down-segment; an EER therefore spans one, two, or three SegRs.
# --------------------------------------------------------------------------
MAX_SEGMENTS_PER_PATH = 3

# The current Internet has "over 70 000 ASes" (§3.3); used for scaling of
# synthetic topologies and the blocklist sizing argument (§4.8).
INTERNET_AS_COUNT = 70_000

# Average Internet AS-path length is 4-5 hops (§7, footnote 3).
TYPICAL_PATH_LENGTH = 4

# --------------------------------------------------------------------------
# Monitoring (§4.8).
# Token-bucket burst tolerance: how long a flow may exceed its rate before
# packets are dropped, expressed as a multiple of the per-second budget.
# --------------------------------------------------------------------------
DEFAULT_BURST_SECONDS = 0.1

# Probabilistic overuse-flow-detector default geometry.  Chosen so the OFD
# fits in cache-like footprints while bounding false-positive rates; the
# suspicious flows it reports are confirmed deterministically (§4.8).
OFD_DEFAULT_DEPTH = 4
OFD_DEFAULT_WIDTH = 4096
OFD_DEFAULT_WINDOW = 1.0  # seconds per measurement window
OFD_OVERUSE_FACTOR = 1.05  # report flows above 105 % of reserved rate

# Duplicate-suppression window: packets older than this cannot be replayed
# because the freshness check already drops them, so the filter only has
# to remember identifiers for this long (§2.3).
DUPLICATE_WINDOW = FRESHNESS_WINDOW

# --------------------------------------------------------------------------
# Control-plane fault tolerance (§3.3, §4.2).
# The paper requires that "in case of an unsuccessful request, the ASes
# clean up their temporary reservations" (§3.3) and that renewals keep
# reservations alive across expiry boundaries (§4.2).  The reproduction
# adds retry/timeout/backoff machinery around the §6.1 RPC layer; these
# parameters size it.  Attempt budgets are chosen so a 20 % per-call loss
# rate still converges with > 99 % probability within one EER lifetime
# (0.2^4 ≈ 0.16 % residual failure per hop), and cleanup gets a larger
# budget because a failed cleanup — unlike a failed setup — leaves
# residual allocations that violate the §3.3 invariant.
# --------------------------------------------------------------------------
RETRY_MAX_ATTEMPTS = 4  # setup/renewal attempts per hop-to-hop call (§3.3)
CLEANUP_MAX_ATTEMPTS = 8  # abort/teardown attempts; 0.2^8 ≈ 2.6e-6 (§3.3)
RETRY_BASE_DELAY = 0.05  # seconds before the first retry (§4.2 renewals
#   must finish well inside the 16 s EER lifetime, §3.3)
RETRY_MAX_DELAY = 1.0  # backoff cap: stay inside the EER lead time (§4.2)
RETRY_MULTIPLIER = 2.0  # capped exponential backoff growth factor (§3.3)

# Per-method-class call-latency budgets (virtual seconds on the bus; §6.1
# "disregard[s] propagation delays", so budgets are measured against
# injected latency, never the wall clock).  Setups traverse whole paths
# of ~4-5 ASes (§7 footnote 3); queries are single-hop.
CALL_TIMEOUT_SETUP = 4.0  # seconds, multi-hop setup/renewal chain (§3.3)
CALL_TIMEOUT_QUERY = 1.0  # seconds, single registry lookup (Appendix C)

# Circuit breaker: after this many consecutive transport failures the
# destination AS is considered down and calls fail fast; after the reset
# timeout one probe is let through (half-open).  Sized against the SegR
# renewal lead time so a recovered AS is re-probed before SegRs lapse
# (§4.2: renewals happen within the 60 s lead window).
CIRCUIT_FAILURE_THRESHOLD = 5  # consecutive failures to open (§4.2)
CIRCUIT_RESET_TIMEOUT = 10.0  # seconds until a half-open probe (§4.2)

# --------------------------------------------------------------------------
# Evaluation geometry (§7.1, Table 2).
# --------------------------------------------------------------------------
EVAL_LINK_GBPS = 40.0
EVAL_INPUT_PORTS = 3
TABLE2_RESERVATION_1_GBPS = 0.4
TABLE2_RESERVATION_2_GBPS = 0.8
