type bin = { lo : int; hi : int; count : int }

let log2_bins values =
  let max_v = Array.fold_left max 0 values in
  let nbins =
    let rec go b acc = if acc > max_v then b else go (b + 1) (acc * 2) in
    go 1 1
  in
  let counts = Array.make (nbins + 1) 0 in
  Array.iter
    (fun v ->
      if v < 0 then invalid_arg "Histogram.log2_bins: negative value";
      let b =
        if v = 0 then 0
        else begin
          let rec go b acc = if acc * 2 > v then b else go (b + 1) (acc * 2) in
          1 + go 0 1
        end
      in
      counts.(b) <- counts.(b) + 1)
    values;
  let bins = ref [] in
  for b = Array.length counts - 1 downto 0 do
    if counts.(b) > 0 then begin
      let lo = if b = 0 then 0 else 1 lsl (b - 1) in
      let hi = if b = 0 then 1 else 1 lsl b in
      bins := { lo; hi; count = counts.(b) } :: !bins
    end
  done;
  !bins
