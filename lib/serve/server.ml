let is_shutdown (response : Protocol.response) =
  match response.Protocol.reply with
  | Ok Protocol.Shutdown_r -> true
  | _ -> false

(* One structured line per over-threshold request, written to the
   slowlog sink (never the response channel): transport-inclusive
   wall time as seen by the serve loop. *)
let slowlog_line (response : Protocol.response) ~wall_ms =
  let open Obs.Json in
  to_string
    (Obj
       [ ("type", Str "slowquery");
         ("id", Num (float_of_int response.Protocol.id));
         ( "verb",
           match response.Protocol.verb with Some v -> Str v | None -> Null );
         ("ok", Bool (Result.is_ok response.Protocol.reply));
         ("wall_ms", Num wall_ms) ])

let serve_channels ?slowlog session ic oc =
  let rec loop () =
    match input_line ic with
    | exception End_of_file -> ()
    | line ->
        if String.trim line = "" then loop ()
        else begin
          let t0 = Unix.gettimeofday () in
          let response = Session.handle_line session line in
          output_string oc (Protocol.response_to_string response);
          output_char oc '\n';
          flush oc;
          (match slowlog with
          | Some (threshold_ms, sink) ->
              let wall_ms = (Unix.gettimeofday () -. t0) *. 1e3 in
              if wall_ms >= threshold_ms then begin
                output_string sink (slowlog_line response ~wall_ms);
                output_char sink '\n';
                flush sink
              end
          | None -> ());
          if not (is_shutdown response) then loop ()
        end
  in
  loop ()

let serve_stdio ?slowlog session = serve_channels ?slowlog session stdin stdout
