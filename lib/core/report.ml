let table ppf ~title ~header rows =
  let all = header :: rows in
  let ncols = List.length header in
  let width c =
    List.fold_left (fun acc row -> max acc (String.length (List.nth row c))) 0 all
  in
  let widths = List.init ncols width in
  let pad c s = Printf.sprintf "%-*s" (List.nth widths c) s in
  let line ch =
    String.concat "-+-" (List.map (fun w -> String.make w ch) widths)
  in
  Format.fprintf ppf "@.== %s ==@." title;
  Format.fprintf ppf "%s@." (String.concat " | " (List.mapi pad header));
  Format.fprintf ppf "%s@." (line '-');
  List.iter
    (fun row ->
      if List.length row <> ncols then invalid_arg "Report.table: ragged row";
      Format.fprintf ppf "%s@." (String.concat " | " (List.mapi pad row)))
    rows

let pct v = Printf.sprintf "%.1f%%" (100.0 *. v)

let ps v = Printf.sprintf "%.1fps" v

let nm v = Printf.sprintf "%.2fnm" v
