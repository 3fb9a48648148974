type t = { mutable srcs : int array; mutable dsts : int array; mutable len : int }

let create ?(capacity = 16) () =
  let capacity = max capacity 1 in
  { srcs = Array.make capacity 0; dsts = Array.make capacity 0; len = 0 }

let length t = t.len

let grow t =
  let cap = Array.length t.srcs in
  let srcs = Array.make (2 * cap) 0 and dsts = Array.make (2 * cap) 0 in
  Array.blit t.srcs 0 srcs 0 t.len;
  Array.blit t.dsts 0 dsts 0 t.len;
  t.srcs <- srcs;
  t.dsts <- dsts

let add t ~src ~dst =
  if t.len = Array.length t.srcs then grow t;
  t.srcs.(t.len) <- src;
  t.dsts.(t.len) <- dst;
  t.len <- t.len + 1

let iter t f =
  for i = 0 to t.len - 1 do
    f ~src:t.srcs.(i) ~dst:t.dsts.(i)
  done

let to_arrays t = (Array.sub t.srcs 0 t.len, Array.sub t.dsts 0 t.len)

let sort t =
  (* Sort an index permutation, then apply it; avoids boxing edge pairs. *)
  let idx = Array.init t.len (fun i -> i) in
  let cmp i j =
    let c = compare t.srcs.(i) t.srcs.(j) in
    if c <> 0 then c else compare t.dsts.(i) t.dsts.(j)
  in
  Array.sort cmp idx;
  let srcs = Array.init t.len (fun i -> t.srcs.(idx.(i))) in
  let dsts = Array.init t.len (fun i -> t.dsts.(idx.(i))) in
  Array.blit srcs 0 t.srcs 0 t.len;
  Array.blit dsts 0 t.dsts 0 t.len

let dedup ?(drop_self_loops = true) t =
  sort t;
  let out = create ~capacity:(max 1 t.len) () in
  let prev_s = ref (-1) and prev_d = ref (-1) in
  for i = 0 to t.len - 1 do
    let s = t.srcs.(i) and d = t.dsts.(i) in
    let is_dup = s = !prev_s && d = !prev_d in
    let is_loop = drop_self_loops && s = d in
    if (not is_dup) && not is_loop then begin
      add out ~src:s ~dst:d;
      prev_s := s;
      prev_d := d
    end
  done;
  out
