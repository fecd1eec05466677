module Graph = Ln_graph.Graph
module Tree = Ln_graph.Tree
module Engine = Ln_congest.Engine

(* The tree program on flat per-call storage. Items are numbered in
   one table, vertex by vertex, and a message is an item's id or
   [done_], the done marker; the edge it arrives on tells its
   direction (the parent edge brings the downcast). Each vertex owns a
   segment of [buf] as long as the number of items in its subtree,
   from [head] to [tail]: a non-root's FIFO of what it still has to
   send up, or a root's arrival order, which it keeps and sends down
   (a vertex outside the tree acts as its own root). A non-root relays
   the one down item a round brings in the same step and counts it in
   [got]; only once what it received stops being a prefix of the
   root's order does it keep a list of its own, in [own]. [waiting]
   counts the children still upcasting, and is -1 once a non-root has
   sent its done marker up. [phase] is 1 once the downcast has reached
   the vertex (at a root: once it began) and 2 once its done marker
   went down. *)
let done_ = -1

let run_broadcast ~name ~do_down ?word_cap ?(words = fun _ -> 2) g ~tree ~items =
  let open Engine in
  let n = Graph.n g and root = Tree.root tree in
  let parent_edge = (Tree.view tree).Tree.parent_edge in
  let waiting = Array.init n (fun v -> List.length (Tree.children tree v)) in
  (* Subtree item counts, each vertex's count added along its path to
     the root (no more steps than [buf] has cells), then turned into
     segment starts. *)
  let head = Array.map List.length items in
  let table =
    match Array.find_opt (fun l -> l <> []) items with
    | Some (x :: _) -> Array.make (Array.fold_left ( + ) 0 head) x
    | _ -> [||]
  in
  for v = 0 to n - 1 do
    let k = List.length items.(v) and u = ref v in
    while k > 0 && parent_edge.(!u) >= 0 do
      u := Graph.other_end g parent_edge.(!u) !u;
      head.(!u) <- head.(!u) + k
    done
  done;
  let size = ref 0 in
  for v = 0 to n - 1 do
    let sub = head.(v) in
    head.(v) <- !size;
    size := !size + sub
  done;
  let buf = Array.make !size 0 and tail = Array.copy head and id = ref 0 in
  let rec push v = function
    | [] -> ()
    | x :: rest ->
      table.(!id) <- x;
      buf.(tail.(v)) <- !id;
      tail.(v) <- tail.(v) + 1;
      incr id;
      push v rest
  in
  Array.iteri push items;
  let root_off = head.(root) in
  let phase = Array.make n 0 and got = Array.make n 0 and own = Array.make n [] in
  let prefix k =
    let l = ref [] in
    for i = root_off + k - 1 downto root_off do
      l := table.(buf.(i)) :: !l
    done;
    !l
  in
  let receive v m =
    let k = got.(v) in
    got.(v) <- k + 1;
    match own.(v) with
    | [] when buf.(root_off + k) = m -> ()
    | [] -> own.(v) <- table.(m) :: List.rev (prefix k)
    | l -> own.(v) <- table.(m) :: l
  in
  let rec send_down ctx m = function
    | [] -> ()
    | c :: rest ->
      ctx_send ctx ~via:parent_edge.(c) m;
      send_down ctx m rest
  in
  let step ctx ~round:_ () =
    let v = ctx.me in
    let pe = parent_edge.(v) in
    let relay = ref done_ in
    while ctx_inbox_next ctx do
      let m = ctx_inbox_payload ctx in
      if ctx_inbox_edge ctx = pe then
        if m = done_ then phase.(v) <- 1
        else begin
          receive v m;
          relay := m
        end
      else if m = done_ then waiting.(v) <- waiting.(v) - 1
      else begin
        buf.(tail.(v)) <- m;
        tail.(v) <- tail.(v) + 1
      end
    done;
    if pe >= 0 then begin
      if head.(v) < tail.(v) then begin
        ctx_send ctx ~via:pe buf.(head.(v));
        head.(v) <- head.(v) + 1
      end
      else if waiting.(v) = 0 then begin
        ctx_send ctx ~via:pe done_;
        waiting.(v) <- -1
      end
    end
    else if do_down && phase.(v) = 0 && waiting.(v) = 0 then phase.(v) <- 1;
    if do_down then begin
      if pe < 0 && phase.(v) = 1 && head.(v) < tail.(v) then begin
        relay := buf.(head.(v));
        head.(v) <- head.(v) + 1
      end;
      if !relay <> done_ then send_down ctx !relay (Tree.children tree v)
      else if phase.(v) = 1 then begin
        send_down ctx done_ (Tree.children tree v);
        phase.(v) <- 2
      end
    end;
    (* A non-root's FIFO is empty once it has sent its done marker up:
       its children sent theirs before it. *)
    if (pe >= 0 && waiting.(v) >= 0) || (do_down && phase.(v) < 2) then ctx_stay_active ctx
  in
  let words m = if m = done_ then 1 else words table.(m) in
  let _, stats = Engine.run ?word_cap g { name; words; init = (fun _ -> ()); step } in
  let whole = tail.(root) - root_off in
  let shared = prefix whole in
  let result =
    Array.init n (fun v ->
        if v = root then shared
        else if not do_down then []
        else if parent_edge.(v) < 0 then items.(v)
        else
          match own.(v) with
          | [] -> if got.(v) = whole then shared else prefix got.(v)
          | l -> List.rev l)
  in
  (result, stats)

let all_to_all ?word_cap ?words g ~tree ~items =
  run_broadcast ~name:"broadcast-all-to-all" ~do_down:true ?word_cap ?words g ~tree ~items

let gather ?word_cap ?words g ~tree ~items =
  run_broadcast ~name:"broadcast-gather" ~do_down:false ?word_cap ?words g ~tree ~items

let downcast ?word_cap ?words g ~tree ~items =
  let per_node = Array.make (Graph.n g) [] in
  per_node.(Tree.root tree) <- items;
  run_broadcast ~name:"broadcast-downcast" ~do_down:true ?word_cap ?words g ~tree
    ~items:per_node

(* ------------------------------------------------------------------ *)
(* Single-value flood — the minimal broadcast, used by the chaos
   harness: forward the value once over every other edge. Timing-
   independent (any delivery order reaches the same fixpoint on a
   reliable network), so it composes with [Reliable.lift]. *)

type flood_msg = Value of int [@@unboxed]

let flood_program ~root ~value : (int option, flood_msg) Engine.program =
  let open Engine in
  let forward ctx ~except =
    for p = ctx.off.(ctx.me) to ctx.off.(ctx.me + 1) - 1 do
      let e = ctx.adj_eid.(p) in
      if e <> except then ctx_send ctx ~via:e (Value value)
    done
  in
  {
    name = "broadcast-flood";
    words = (fun (Value _) -> 1);
    init =
      (fun ctx ->
        if ctx.me = root then begin
          forward ctx ~except:(-1);
          Some value
        end
        else None);
    step =
      (fun ctx ~round:_ s ->
        match s with
        | Some _ -> s
        | None ->
          if ctx_inbox_next ctx then begin
            let (Value x) = ctx_inbox_payload ctx in
            forward ctx ~except:(ctx_inbox_edge ctx);
            Some x
          end
          else s);
  }

let flood g ~root ~value = Engine.run g (flood_program ~root ~value)

let flood_reliable ?max_retries g ~root ~value =
  let lifted = Ln_congest.Reliable.lift ?max_retries (flood_program ~root ~value) in
  let states, stats = Engine.run g lifted in
  (Array.map Ln_congest.Reliable.project states, stats)
