(* The 64-bit state lives unboxed in 8 bytes: a [mutable int64] field
   would box a fresh state on every draw. With [next] and [mix] inlined,
   [int] and [float] keep every intermediate in registers and allocate
   nothing. *)
type t = Bytes.t

let golden = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_le t 0 s;
  t

let create seed = of_state (mix (Int64.of_int seed))

let[@inline] next t =
  let s = Int64.add (Bytes.get_int64_le t 0) golden in
  Bytes.set_int64_le t 0 s;
  mix s

let int t n =
  if n <= 0 then invalid_arg "Rng.int: bound must be positive";
  let v = Int64.to_int (Int64.shift_right_logical (next t) 2) in
  v mod n

let float t =
  let v = Int64.to_float (Int64.shift_right_logical (next t) 11) in
  v /. 9007199254740992.0

let bool t ~p = float t < p

let pick t l =
  match l with
  | [] -> invalid_arg "Rng.pick: empty list"
  | _ -> List.nth l (int t (List.length l))

let pick_array t a =
  if Array.length a = 0 then invalid_arg "Rng.pick_array: empty array";
  a.(int t (Array.length a))

let shuffle t l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done;
  Array.to_list a

let sample t n l =
  let shuffled = shuffle t l in
  List.filteri (fun i _ -> i < n) shuffled

let weighted t l =
  if l = [] then invalid_arg "Rng.weighted: empty list";
  let total = List.fold_left (fun acc (w, _) -> acc +. w) 0.0 l in
  if total <= 0.0 then invalid_arg "Rng.weighted: non-positive total weight";
  let target = float t *. total in
  let rec go acc = function
    | [] -> snd (List.hd (List.rev l))
    | (w, v) :: rest -> if acc +. w > target then v else go (acc +. w) rest
  in
  go 0.0 l
