let is_shutdown (response : Protocol.response) =
  match response.Protocol.reply with
  | Ok Protocol.Shutdown_r -> true
  | _ -> false

let serve_channels session ic oc =
  let rec loop () =
    match input_line ic with
    | exception End_of_file -> ()
    | line ->
        if String.trim line = "" then loop ()
        else begin
          let response = Session.handle_line session line in
          output_string oc (Protocol.response_to_string response);
          output_char oc '\n';
          flush oc;
          if not (is_shutdown response) then loop ()
        end
  in
  loop ()

let serve_stdio session = serve_channels session stdin stdout
