(** Stage-level checkpoint/resume for the flow.

    A checkpoint directory holds, per stage, a payload file (the
    stage's serialised result) and a meta JSON file recording the
    stage name, a content-hash {e key} over the stage's inputs, the
    payload's MD5 and any extra stage fields.  On a resume run a stage
    is skipped only when all of these check out: stale keys (inputs
    changed since the checkpoint was written), tampered payloads and
    undecodable files are {e rejected} and the stage recomputes — a
    checkpoint is a cache, never a source of truth.

    Metrics: [flow.checkpoint.saved] / [flow.checkpoint.loaded] /
    [flow.checkpoint.rejected]. *)

type t = {
  dir : string;  (** checkpoint directory (created on [create]) *)
  resume : bool;
      (** when set, try to load stages before computing; otherwise the
          run only (over)writes checkpoints *)
}

(** Make a checkpoint handle, creating [dir] (and parents) if needed. *)
val create : dir:string -> resume:bool -> t

(** A stage's payload file (exposed for tests and tooling). *)
val payload_path : t -> string -> string

(** [stage ckpt ~name ~key ~encode ~decode compute] runs one
    checkpointable stage.  With [ckpt = None] this is just
    [compute ()].  Otherwise, on a resume run a stored payload whose
    meta matches [name], [key] and the payload digest is decoded and
    returned ([decode] gets the payload text and the meta object;
    returning [None] or raising counts as rejection).  On a miss —
    or on a non-resume run — [compute] runs and its result is encoded
    ([encode] returns the payload text plus extra meta fields) and
    written for the next run. *)
val stage :
  t option ->
  name:string ->
  key:string ->
  encode:('a -> string * (string * Obs.Json.t) list) ->
  decode:(payload:string -> meta:Obs.Json.t -> 'a option) ->
  (unit -> 'a) ->
  'a
