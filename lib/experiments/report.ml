let table ~header ~rows =
  let all = header :: rows in
  let cols = List.fold_left (fun acc r -> max acc (List.length r)) 0 all in
  let width = Array.make cols 0 in
  List.iter
    (fun row ->
      List.iteri (fun i cell -> if String.length cell > width.(i) then width.(i) <- String.length cell) row)
    all;
  let render row =
    let cells =
      List.mapi (fun i cell -> cell ^ String.make (width.(i) - String.length cell) ' ') row
    in
    String.concat "  " cells
  in
  let rule = String.concat "--" (Array.to_list (Array.map (fun w -> String.make w '-') width)) in
  String.concat "\n" (render header :: rule :: List.map render rows)

let fsig x =
  if Float.is_nan x then "nan"
  else if x = 0.0 then "0"
  else begin
    let a = abs_float x in
    if a >= 1000.0 then Cutfit_stats.Summary.commas (int_of_float (Float.round x))
    else if a >= 100.0 then Printf.sprintf "%.0f" x
    else if a >= 10.0 then Printf.sprintf "%.1f" x
    else Printf.sprintf "%.2f" x
  end

let pct x = Printf.sprintf "%.1f%%" x

let seconds x = if Float.is_nan x then "OOM" else Printf.sprintf "%ss" (fsig x)
