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
    until end-of-input or a [shutdown] request.  A parsed request's
    id, outcome and wall time are recorded by its [serve.<verb>] span
    ({!Session.handle_line}), never on the response channel. *)
val serve_channels : Session.t -> in_channel -> out_channel -> unit

(** Serve stdin/stdout until end-of-input or [shutdown]. *)
val serve_stdio : Session.t -> unit
