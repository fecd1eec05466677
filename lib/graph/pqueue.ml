(* Two flat columns, an unboxed float array and an int array, so the
   heap's storage allocates nothing per push or pop. A push from
   another module still boxes its float priority at the call: dune's
   dev profile compiles with -opaque, so the call is never inlined.
   Sifts move a hole where a swapping heap would swap and leave every
   item where its strict-[<] comparisons would, so they pop in the
   same order. *)
type t = {
  mutable prio : float array;
  mutable data : int array;
  mutable len : int;
}

let create () = { prio = Array.make 16 infinity; data = Array.make 16 0; len = 0 }

let is_empty q = q.len = 0
let length q = q.len
let clear q = q.len <- 0

let grow q =
  let cap = 2 * Array.length q.prio in
  let prio = Array.make cap infinity and data = Array.make cap 0 in
  Array.blit q.prio 0 prio 0 q.len;
  Array.blit q.data 0 data 0 q.len;
  q.prio <- prio;
  q.data <- data

let push q p x =
  if q.len = Array.length q.prio then grow q;
  let prio = q.prio and data = q.data in
  let i = ref q.len in
  q.len <- q.len + 1;
  while !i > 0 && p < prio.((!i - 1) / 2) do
    let parent = (!i - 1) / 2 in
    prio.(!i) <- prio.(parent);
    data.(!i) <- data.(parent);
    i := parent
  done;
  prio.(!i) <- p;
  data.(!i) <- x

let min_prio q = if q.len = 0 then raise Not_found else q.prio.(0)

let pop_min q =
  if q.len = 0 then raise Not_found;
  let prio = q.prio and data = q.data in
  let top = data.(0) and len = q.len - 1 in
  q.len <- len;
  (* Sift the last item down from the root, Floyd's way: walk the hole
     down the smaller-child path to a leaf (right only if strictly
     smaller, picked without a branch), then back up while the parent
     is not below [p]. That is where a swapping sift-down stops. *)
  let p = prio.(len) and x = data.(len) in
  let i = ref 0 in
  while (2 * !i) + 1 < len do
    let l = (2 * !i) + 1 in
    let c = if l + 1 < len then l + Bool.to_int (prio.(l + 1) < prio.(l)) else l in
    prio.(!i) <- prio.(c);
    data.(!i) <- data.(c);
    i := c
  done;
  while !i > 0 && not (prio.((!i - 1) / 2) < p) do
    let parent = (!i - 1) / 2 in
    prio.(!i) <- prio.(parent);
    data.(!i) <- data.(parent);
    i := parent
  done;
  prio.(!i) <- p;
  data.(!i) <- x;
  top
