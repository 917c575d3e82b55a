(** Wire protocol of the resident timing service.

    JSONL on both sides: one request object per line in, one response
    object per line out, encoded and parsed with {!Obs.Json} (so the
    byte encoding is deterministic — the golden multi-request script
    test compares response bytes).  Requests carry a ["verb"] plus
    verb-specific fields and an optional integer ["id"]; the response
    echoes the id (the server assigns the 1-based request sequence
    number when absent — including to unparsable lines, which still
    consume a sequence slot and get an error reply).

    Verbs:

    {v
    {"verb":"status"}                    warm-state summary
    {"verb":"retime"}                    worst path (Sta.Incremental revalidation)
    {"verb":"retime","endpoint":9}       path to one endpoint net
    {"verb":"whatif","gate":"g22","dl":3.0}        resize: channel-length bias, nm
    {"verb":"whatif","gate":"g22","dx":400,"dy":0} move: instance translation, nm
    {"verb":"cds"}                       extracted CDs, whole die
    {"verb":"cds","lx":0,"ly":0,"hx":3000,"hy":3000}   ... for a region
    {"verb":"corner","dose":1.03,"defocus":90}     re-extract + re-time at a
                                         process condition (dose > 0); add
                                         "spread" (nm, >= 0) for the classic
                                         CD-corner views too
    {"verb":"ssta"}                      statistical timing: process-window
                                         CD fit + canonical-form propagation
                                         (computed once, then served warm);
                                         add "top":N to cap the endpoint list
    {"verb":"metrics"}                   session counters (serve.* only)
    {"verb":"shutdown"}                  reply, then stop the server
    v}

    A request carries ["id"], ["verb"] and only the fields its verb
    reads, as listed above; any other field is a parse error,
    [unknown field "X" for verb "V"].  Integer fields must be integral
    and at most 2{^53} in magnitude, the range a JSON number holds
    exactly; anything else is a parse error.  A move whose [dx]
    exceeds the die width or whose [dy] exceeds the die height gets an
    error reply before any flow work.

    The [metrics] reply is a pure function of this session's request
    history, so it can appear in golden scripts.  Wall-clock telemetry
    leaves the process through [potx serve]'s [--trace], [--metrics]
    and [--profile] files instead.

    Responses are [{"id":N,"verb":V,"ok":true,...}] on success and
    [{"id":N,"ok":false,"error":S}] (with the verb when it parsed) on
    failure.  Every float crossing the wire is printed by
    {!Obs.Json.to_string}'s deterministic number form. *)

type whatif_change =
  | Move of { dx : int; dy : int }  (** translate the instance, nm *)
  | Resize of { dl : float }
      (** bias the instance's effective channel lengths, nm (a pure
          timing what-if: no litho re-simulation) *)

type request =
  | Status
  | Retime of { endpoint : Circuit.Netlist.net option }
  | Whatif of { gate : string; change : whatif_change }
  | Cds of { region : Geometry.Rect.t option }
  | Corner of { dose : float; defocus : float; spread : float option }
  | Ssta of { top : int option }
      (** statistical timing view; [top] caps the endpoints reported *)
  | Metrics
  | Shutdown

(** The wire name of a request's verb ("status", "retime", ...). *)
val verb : request -> string

(** One worst-arc path in a reply. *)
type path_report = {
  endpoint : Circuit.Netlist.net;
  arrival : float;  (** ps *)
  slack : float;  (** ps *)
  gates : string list;  (** instance names, launch to capture *)
}

(** One extracted-CD record in a [cds] reply. *)
type cd_record = {
  gate : string;  (** gate-site key, ["inst/tname"] *)
  cd : float;  (** mean printed CD, nm (drawn L when nothing printed) *)
  delta : float;  (** printed minus drawn, nm (0 when nothing printed) *)
  printed : bool;
}

(** One endpoint's slack distribution in an [ssta] reply. *)
type ssta_endpoint = {
  net : Circuit.Netlist.net;
  slack_mean : float;  (** ps *)
  slack_sigma : float;  (** ps *)
  criticality : float;  (** P(this endpoint carries the worst arrival) *)
}

type reply =
  | Status_r of {
      bench : string;
      gates : int;
      nets : int;
      clock_period : float;
      drawn_wns : float;
      wns : float;
      tns : float;
      cds : int;
    }
  | Retime_r of { path : path_report; reevaluated : int }
  | Whatif_r of {
      gate : string;
      wns_before : float;
      wns_after : float;
      worst : path_report;
      reevaluated : int;  (** gates re-timed by [Sta.Incremental] *)
      remeasured : int;  (** gate sites re-extracted (0 for a resize) *)
    }
  | Cds_r of cd_record list
  | Corner_r of {
      dose : float;
      defocus : float;
      wns : float;
      tns : float;
      corners : (string * float) list;  (** classic corner name, wns *)
    }
  | Ssta_r of {
      clock_period : float;  (** ps *)
      wns_mean : float;  (** ps *)
      wns_sigma : float;  (** ps *)
      fail_probability : float;
      shift : float;  (** nm, fitted mean CD shift over the window *)
      global_sigma : float;  (** nm *)
      local_sigma : float;  (** nm, incl. the silicon-noise floor *)
      conditions : int;  (** process-window samples fitted *)
      endpoints : ssta_endpoint list;  (** criticality-sorted *)
    }
  | Metrics_r of {
      counters : (string * int) list;  (** session counters, sorted *)
    }
  | Shutdown_r

type response = {
  id : int;
  verb : string option;  (** [None] when the request line did not parse *)
  reply : (reply, string) result;
}

(** {1 Requests} *)

(** Parse one request line: the optional explicit id and the request.
    [Error] carries a message suitable for an error reply. *)
val parse_request : string -> (int option * request, string) result

val request_to_string : ?id:int -> request -> string

(** {1 Responses} *)

(** The response as one JSONL line (no trailing newline). *)
val response_to_string : response -> string

(** Parse a response line back (tests, clients).  Round-trips
    {!response_to_string} for every reply shape. *)
val parse_response : string -> (response, string) result
