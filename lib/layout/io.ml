module G = Geometry

let write_shapes ppf shapes =
  List.iter
    (fun (layer, poly) ->
      Format.fprintf ppf "%s" (Layer.name layer);
      List.iter
        (fun (v : G.Point.t) -> Format.fprintf ppf " %d %d" v.G.Point.x v.G.Point.y)
        (G.Polygon.vertices poly);
      Format.fprintf ppf "@.")
    shapes

let parse_line lineno line =
  match String.split_on_char ' ' (String.trim line) with
  | [] | [ "" ] -> None
  | name :: coords -> (
      if String.length name > 0 && name.[0] = '#' then None
      else
        match Layer.of_name name with
        | None -> failwith (Printf.sprintf "line %d: unknown layer %s" lineno name)
        | Some layer ->
            let ints =
              List.filter_map
                (fun s ->
                  if s = "" then None
                  else
                    match int_of_string_opt s with
                    | Some i -> Some i
                    | None ->
                        failwith
                          (Printf.sprintf "line %d: bad coordinate %s" lineno s))
                coords
            in
            if List.length ints < 8 || List.length ints mod 2 <> 0 then
              failwith (Printf.sprintf "line %d: need >= 4 x,y pairs" lineno);
            let rec pair = function
              | x :: y :: rest -> G.Point.make x y :: pair rest
              | [] -> []
              | [ _ ] -> assert false
            in
            match G.Polygon.make (pair ints) with
            | poly -> Some (layer, poly)
            | exception Invalid_argument msg ->
                failwith (Printf.sprintf "line %d: %s" lineno msg))

let read_shapes text =
  String.split_on_char '\n' text
  |> List.mapi (fun i line -> (i + 1, line))
  |> List.filter_map (fun (i, line) -> parse_line i line)

let write_chip ppf chip =
  List.iter
    (fun layer ->
      List.iter
        (fun poly -> write_shapes ppf [ (layer, poly) ])
        (Chip.flatten_layer chip layer))
    Layer.all
