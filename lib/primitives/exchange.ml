module Engine = Ln_congest.Engine

let exchange ?word_cap ?(edge_ok = fun _ -> true) ~words g (values : 'a array) =
  let open Engine in
  let program : ((int * 'a) list, 'a) Engine.list_program =
    {
      name = "exchange";
      words;
      init =
        (fun ctx ->
          ( [],
            List.rev
              (ctx_fold_neighbors ctx
                 (fun acc e _ ->
                   if edge_ok e then { via = e; msg = values.(ctx.me) } :: acc
                   else acc)
                 []) ));
      step =
        (fun _ctx ~round:_ s inbox ->
          let s =
            List.fold_left (fun s (r : 'a received) -> (r.edge, r.payload) :: s) s inbox
          in
          (s, [], false));
    }
  in
  Engine.run ?word_cap g (Engine.of_lists program)

let ints g values = exchange ~words:(fun _ -> 1) g values
let floats g values = exchange ~words:(fun _ -> 2) g values

let payloads ?edge_ok ?word_cap ~words g values =
  exchange ?word_cap ?edge_ok ~words g values
