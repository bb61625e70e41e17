(* Sharded metrics. One shard per domain, reached through domain-local
   storage; the global registry only tracks the shard list (under a
   mutex, touched once per domain) so recording never takes a lock.
   Merges use commutative operations only — see the .mli's determinism
   contract. *)

(* Fixed log-scale buckets: four per decade over [1e-9, 1e6), bucket 0
   catches everything at or below 1e-9, the last bucket everything
   beyond. 62 buckets total. *)
let n_buckets = 62

let bucket_lower i =
  if i <= 0 then 0.0 else 10.0 ** (-9.0 +. (float_of_int (i - 1) /. 4.0))

let bucket_of v =
  if Float.is_nan v then 0
  else if v = Float.infinity then n_buckets - 1
  else if v <= 1e-9 then 0
  else
    let i = 1 + int_of_float (Float.floor ((Float.log10 v +. 9.0) *. 4.0)) in
    let i = if i < 1 then 1 else if i >= n_buckets then n_buckets - 1 else i in
    (* log10 carries float error, so a value at an exact bucket boundary
       can land one off (e.g. log10 1e-6 is a hair above -6). Snap
       against the real boundaries: bucket i covers
       [bucket_lower i, bucket_lower (i+1)). One step is enough — the
       log error is ulps, far below a quarter-decade. *)
    if i + 1 < n_buckets && v >= bucket_lower (i + 1) then i + 1
    else if i > 1 && v < bucket_lower i then i - 1
    else i

type hist = { buckets : int array; mutable sum : float; mutable count : int }
type cell = C of int ref | H of hist
type shard = (string, cell) Hashtbl.t

let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag
let enable () = Atomic.set enabled_flag true
let disable () = Atomic.set enabled_flag false

let reg_mutex = Mutex.create ()
let shards : shard list ref = ref []

let shard_key : shard Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let s : shard = Hashtbl.create 64 in
      Mutex.lock reg_mutex;
      shards := s :: !shards;
      Mutex.unlock reg_mutex;
      s)

let my_shard () = Domain.DLS.get shard_key

let kind_error name =
  invalid_arg ("Obs.Metrics: " ^ name ^ " recorded with conflicting kinds")

let add name n =
  if Atomic.get enabled_flag then begin
    let s = my_shard () in
    match Hashtbl.find_opt s name with
    | Some (C r) -> r := !r + n
    | Some _ -> kind_error name
    | None -> Hashtbl.add s name (C (ref n))
  end

let incr name = add name 1

let observe name v =
  if Atomic.get enabled_flag then begin
    let s = my_shard () in
    let h =
      match Hashtbl.find_opt s name with
      | Some (H h) -> h
      | Some _ -> kind_error name
      | None ->
        let h = { buckets = Array.make n_buckets 0; sum = 0.0; count = 0 } in
        Hashtbl.add s name (H h);
        h
    in
    let b = bucket_of v in
    h.buckets.(b) <- h.buckets.(b) + 1;
    h.sum <- h.sum +. v;
    h.count <- h.count + 1
  end

type histogram = { h_sum : float; h_count : int; h_buckets : (float * int) list }
type value = Counter of int | Histogram of histogram

(* Merge accumulator mirroring [cell]; shards are folded in registration
   order, but every combining operation is commutative and associative,
   so the order cannot matter. *)
let collect () =
  Mutex.lock reg_mutex;
  let ss = !shards in
  Mutex.unlock reg_mutex;
  let acc : (string, cell) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun s ->
      Hashtbl.iter
        (fun name cell ->
          match (Hashtbl.find_opt acc name, cell) with
          | None, C r -> Hashtbl.add acc name (C (ref !r))
          | None, H h ->
            Hashtbl.add acc name
              (H { buckets = Array.copy h.buckets; sum = h.sum; count = h.count })
          | Some (C a), C r -> a := !a + !r
          | Some (H a), H h ->
            Array.iteri (fun i n -> a.buckets.(i) <- a.buckets.(i) + n) h.buckets;
            a.sum <- a.sum +. h.sum;
            a.count <- a.count + h.count
          | Some _, _ -> kind_error name)
        s)
    ss;
  Hashtbl.fold
    (fun name cell out ->
      let v =
        match cell with
        | C r -> Counter !r
        | H h ->
          let bs = ref [] in
          for i = n_buckets - 1 downto 0 do
            if h.buckets.(i) > 0 then bs := (bucket_lower i, h.buckets.(i)) :: !bs
          done;
          Histogram { h_sum = h.sum; h_count = h.count; h_buckets = !bs }
      in
      (name, v) :: out)
    acc []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let find_counter metrics name =
  match List.assoc_opt name metrics with Some (Counter n) -> n | _ -> 0

let reset () =
  Mutex.lock reg_mutex;
  let ss = !shards in
  Mutex.unlock reg_mutex;
  List.iter Hashtbl.reset ss
