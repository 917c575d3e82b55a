(** The type of [Timing_opc.Flow.config]'s [retry] field, which no
    flow code reads.  Every flow stage is a pure, deterministic
    function of its inputs, so nothing in a run can fail transiently
    and there is nothing to retry.  The field and this stub stay only
    because the benchmark's config literal ([perfbench/main.ml]) still
    sets [retry = Fault.no_retry]; they go when that line does. *)

type retry

(** The field's one value. *)
val no_retry : retry
