(** The request/response loop around a warm {!Session}.

    One line in, one line out: requests are handled strictly in the
    order read and each response is written and flushed before the
    next request is read, so per-request outputs appear in request
    order no matter how a client batches its writes — one leg of the
    byte-determinism contract.

    [potx serve] runs the loop over stdio: stdout carries only
    response lines, diagnostics go to stderr.  A [shutdown] request
    answers, then stops the loop. *)

(** [serve_channels session ic oc] answers requests from [ic] on [oc]
    until end-of-input or a [shutdown] request.

    [slowlog = (threshold_ms, sink)] turns on the slow-query log:
    every request whose handling (transport-inclusive, as seen by
    this loop) takes at least [threshold_ms] milliseconds appends one
    structured JSONL line to [sink] —
    [{"type":"slowquery","id":N,"verb":V|null,"ok":B,"wall_ms":F}] —
    flushed per line.  The sink is never the response channel, so the
    byte-determinism contract on responses is unaffected; [potx serve
    --slowlog MS] points it at stderr by default. *)
val serve_channels :
  ?slowlog:float * out_channel -> Session.t -> in_channel -> out_channel -> unit

(** Serve stdin/stdout until end-of-input or [shutdown]. *)
val serve_stdio : ?slowlog:float * out_channel -> Session.t -> unit
