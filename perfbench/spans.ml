(* In-memory span recorder for the traced run. Spans are opened and
   closed by the benchmark around calls into each layer's public
   functions; nothing inside the program is instrumented. Storage is a
   set of parallel int arrays, so recording a span allocates nothing
   once the arrays have grown to one op's span count. *)

let now () = Int64.to_int (Monotonic_clock.now ())

type t = {
  mutable n : int;
  mutable name : int array;
  mutable start : int array;
  mutable stop : int array;
  mutable parent : int array;
  mutable cur : int;  (** innermost open span, -1 at top level *)
  ids : (string, int) Hashtbl.t;
  mutable labels : string array;
}

let create () =
  let cap = 1024 in
  { n = 0;
    name = Array.make cap 0;
    start = Array.make cap 0;
    stop = Array.make cap 0;
    parent = Array.make cap (-1);
    cur = -1;
    ids = Hashtbl.create 32;
    labels = [||] }

let intern t label =
  match Hashtbl.find_opt t.ids label with
  | Some i -> i
  | None ->
    let i = Array.length t.labels in
    Hashtbl.add t.ids label i;
    t.labels <- Array.append t.labels [| label |];
    i

let label t id = t.labels.(id)

let grow t =
  let cap = 2 * Array.length t.name in
  let ext a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.n;
    b
  in
  t.name <- ext t.name 0;
  t.start <- ext t.start 0;
  t.stop <- ext t.stop 0;
  t.parent <- ext t.parent (-1)

(* [add] records a finished or open span with explicit times; [enter]
   and [leave] are the clock-driven form the benchmark uses. *)
let add t ~name ~start ~stop ~parent =
  if t.n = Array.length t.name then grow t;
  let i = t.n in
  t.name.(i) <- name;
  t.start.(i) <- start;
  t.stop.(i) <- stop;
  t.parent.(i) <- parent;
  t.n <- i + 1;
  i

let enter t name =
  let i = add t ~name ~start:(now ()) ~stop:(-1) ~parent:t.cur in
  t.cur <- i;
  i

let leave t i =
  t.stop.(i) <- now ();
  t.cur <- t.parent.(i)

let with_span t name f =
  let i = enter t name in
  match f () with
  | r ->
    leave t i;
    r
  | exception e ->
    leave t i;
    raise e

let reset t =
  t.n <- 0;
  t.cur <- -1

(* Self time of every span: its duration minus the part of its
   interval that its children cover (children clipped to the parent and
   merged, so overlapping children are not subtracted twice). *)
let self_times t =
  let children = Array.make t.n [] in
  for i = t.n - 1 downto 0 do
    let p = t.parent.(i) in
    if p >= 0 then children.(p) <- i :: children.(p)
  done;
  Array.init t.n (fun i ->
      let lo = t.start.(i) and hi = t.stop.(i) in
      let ivs =
        List.filter_map
          (fun c ->
            let a = max lo t.start.(c) and b = min hi t.stop.(c) in
            if b > a then Some (a, b) else None)
          children.(i)
        |> List.sort compare
      in
      let covered, _ =
        List.fold_left
          (fun (acc, reach) (a, b) ->
            let a = max a reach in
            if b > a then (acc + (b - a), b) else (acc, reach))
          (0, min_int) ivs
      in
      hi - lo - covered)

(* Self time summed per span name, in recording order of first use. *)
let self_by_name t =
  let self = self_times t in
  let sums = Hashtbl.create 16 in
  let order = ref [] in
  for i = 0 to t.n - 1 do
    let k = t.name.(i) in
    match Hashtbl.find_opt sums k with
    | Some s -> Hashtbl.replace sums k (s + self.(i))
    | None ->
      Hashtbl.add sums k self.(i);
      order := k :: !order
  done;
  List.rev_map (fun k -> (label t k, Hashtbl.find sums k)) !order

(* An op's time that no layer span accounts for: [total_ns] minus the
   self times of every span except the op's own root span [root]. *)
let unattributed t ~root ~total_ns =
  List.fold_left
    (fun acc (name, self_ns) -> if name = root then acc else acc - self_ns)
    total_ns (self_by_name t)

(* One JSON object per span; [req] is shared by the spans of one op. *)
let write_jsonl oc t ~op ~req =
  for i = 0 to t.n - 1 do
    Printf.fprintf oc
      "{\"op\":%S,\"req\":%d,\"id\":%d,\"parent\":%d,\"name\":%S,\"start_ns\":%d,\"end_ns\":%d}\n"
      op req i t.parent.(i) (label t t.name.(i)) t.start.(i) t.stop.(i)
  done
