let check xs ys =
  if Array.length xs <> Array.length ys then invalid_arg "Correlation: length mismatch";
  if Array.length xs < 2 then invalid_arg "Correlation: need at least 2 points"

let pearson xs ys =
  check xs ys;
  let n = float_of_int (Array.length xs) in
  let mx = Array.fold_left ( +. ) 0.0 xs /. n and my = Array.fold_left ( +. ) 0.0 ys /. n in
  let sxy = ref 0.0 and sxx = ref 0.0 and syy = ref 0.0 in
  Array.iteri
    (fun i x ->
      let dx = x -. mx and dy = ys.(i) -. my in
      sxy := !sxy +. (dx *. dy);
      sxx := !sxx +. (dx *. dx);
      syy := !syy +. (dy *. dy))
    xs;
  if !sxx = 0.0 || !syy = 0.0 then 0.0
  else begin
    (* Clamp the rounding residue so callers can rely on [-1, 1]. *)
    let c = !sxy /. sqrt (!sxx *. !syy) in
    Float.min 1.0 (Float.max (-1.0) c)
  end
