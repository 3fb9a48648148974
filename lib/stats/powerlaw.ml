type fit = { alpha : float; x_min : int; tail_fraction : float }

let fit_alpha ?(x_min = 2) values =
  if x_min < 1 then invalid_arg "Powerlaw.fit_alpha: x_min < 1";
  let n_total = Array.length values in
  let log_offset = float_of_int x_min -. 0.5 in
  let n = ref 0 and log_sum = ref 0.0 in
  Array.iter
    (fun x ->
      if x >= x_min then begin
        incr n;
        log_sum := !log_sum +. log (float_of_int x /. log_offset)
      end)
    values;
  if !n < 10 || !log_sum <= 0.0 then None
  else
    Some
      {
        alpha = 1.0 +. (float_of_int !n /. !log_sum);
        x_min;
        tail_fraction = float_of_int !n /. float_of_int (max 1 n_total);
      }
