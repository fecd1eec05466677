(* Sparse-table range-minimum queries: O(n log n) preprocessing, O(1)
   argmin on inclusive index ranges. Ties break towards the leftmost
   position so answers are deterministic. Used by Labels for Euler-tour
   LCA, where the values are tour hop-depths. *)

type t = {
  values : int array;
  table : int array array;
      (* table.(k).(i) = argmin of values over [i, i + 2^k) *)
}

let log2_floor n =
  let rec go acc n = if n <= 1 then acc else go (acc + 1) (n lsr 1) in
  go 0 n

let build values =
  let n = Array.length values in
  if n = 0 then { values; table = [||] }
  else begin
    let levels = log2_floor n + 1 in
    let table = Array.make levels [||] in
    table.(0) <- Array.init n Fun.id;
    for k = 1 to levels - 1 do
      let half = 1 lsl (k - 1) in
      let width = 1 lsl k in
      let row = Array.make (n - width + 1) 0 in
      let prev = table.(k - 1) in
      for i = 0 to n - width do
        let a = prev.(i) and b = prev.(i + half) in
        row.(i) <- (if values.(a) <= values.(b) then a else b)
      done;
      table.(k) <- row
    done;
    { values; table }
  end

let argmin t i j =
  let i, j = if i <= j then (i, j) else (j, i) in
  let n = Array.length t.values in
  if i < 0 || j >= n then invalid_arg "Rmq.argmin: index out of range";
  if i = j then i
  else begin
    let k = log2_floor (j - i + 1) in
    let a = t.table.(k).(i) and b = t.table.(k).(j - (1 lsl k) + 1) in
    if t.values.(b) < t.values.(a) || (t.values.(b) = t.values.(a) && b < a) then b
    else a
  end

let length t = Array.length t.values
