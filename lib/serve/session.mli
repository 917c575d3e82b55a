(** A warm timing-service session.

    [create] runs the full flow once (place, OPC, aerial simulation,
    CD extraction, annotation, STA) and keeps everything the flow
    produced — placed chip, post-OPC mask, extracted CDs, annotated
    timing graph — resident, together with one shared {!Exec.Pool}
    for the whole session, so subsequent queries touch only the parts
    that change.

    Determinism contract (enforced by [test/test_serve.ml] and the
    golden script capture): every query is a read-only function of
    the warm state — what-if perturbations are computed against the
    base run and discarded — so for a given request script the
    response bytes are identical regardless of worker-domain count,
    tile-cache state or how clients interleave, and each reply equals
    the same computation performed as a cold one-shot run.

    Observability: each request runs under an [serve.<verb>] span and
    bumps session-local counters ([serve.requests], [serve.errors],
    [serve.verb.<verb>]) that the [metrics] verb reports.  The
    counters are mirrored into the global {!Obs.Metrics} registry for
    [--metrics] dumps; the plain verb reads only the session-local
    ones, so its replies do not depend on unrelated process history.
    Each handled line is additionally observed into a per-verb
    latency histogram [serve.latency.<verb>] (milliseconds; verb
    ["invalid"] for unparsable lines) in the global registry — the
    source of the p50/p95/p99 quantiles in [metrics all:true] replies
    and [potx obs-report].  The [profile] verb re-runs its target
    request under span tracing and replies with the Chrome-trace span
    tree ({!Obs.Profile.chrome_trace}); when process-wide tracing is
    off it is enabled only for the target's duration, so profiling
    never perturbs the span log of a [--trace] run. *)

type t

(** Run the flow on [netlist] under [config] and hold the result warm.
    Spawns the session's worker pool when [config.domains > 1].
    [bench] is the benchmark name echoed by the [status] verb
    (default ["?"]). *)
val create : ?bench:string -> Timing_opc.Flow.config -> Circuit.Netlist.t -> t

(** The warm base run. *)
val run : t -> Timing_opc.Flow.run

(** Execute one parsed request against the warm state.  [Error] is a
    protocol-level error message (unknown gate, unknown endpoint,
    ...); exceptions escaping the underlying flow are caught by
    {!handle_line}, not here. *)
val handle : t -> Protocol.request -> (Protocol.reply, string) result

(** Handle one raw request line: assign the response id (explicit
    ["id"] field, else the 1-based request sequence number — every
    line consumes a slot, parsable or not), run {!handle} under the
    request span, and turn parse errors, protocol errors and the
    [Failure] or [Invalid_argument] of a request the flow cannot
    answer (say, a [corner] whose [spread] reaches the drawn gate
    length) into error replies.  The session survives any such
    request. *)
val handle_line : t -> string -> Protocol.response

(** Session-local counters, sorted by name (what the [metrics] verb
    reports). *)
val counters : t -> (string * int) list

(** Shut down the session's worker pool.  Idempotent. *)
val close : t -> unit

(** Print the classic [potx run] batch report for the warm run —
    OPC stats, CD summary, drawn/post-OPC/corner timing views,
    leakage, optional path report and selective-OPC loop.  [potx run]
    is exactly [create] + [print_report] + [close], so the one-shot
    command and the resident service share one flow core.

    [ssta] appends the statistical-timing section ({!Timing_opc.Flow.ssta}):
    the process-window fit, the canonical-form WNS distribution,
    per-endpoint slack distributions with criticality probabilities,
    and the Kendall-tau reordering of the criticality ranking against
    the drawn and slow-corner slack rankings.  The section is purely
    additive — with [ssta:false] the output is byte-identical to
    before the flag existed. *)
val print_report :
  Format.formatter ->
  t ->
  spread:float ->
  report:int ->
  selective:bool ->
  ssta:bool ->
  unit
