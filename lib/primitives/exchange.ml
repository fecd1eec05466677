module Engine = Ln_congest.Engine

let exchange ?word_cap ?(edge_ok = fun _ -> true) ~words g (values : 'a array) =
  let open Engine in
  let program : ((int * 'a) list, 'a) Engine.program =
    {
      name = "exchange";
      words;
      init =
        (fun ctx ->
          for p = ctx.off.(ctx.me) to ctx.off.(ctx.me + 1) - 1 do
            let e = ctx.adj_eid.(p) in
            if edge_ok e then ctx_send ctx ~via:e values.(ctx.me)
          done;
          []);
      step =
        (fun ctx ~round:_ s ->
          let s = ref s in
          while ctx_inbox_next ctx do
            s := (ctx_inbox_edge ctx, ctx_inbox_payload ctx) :: !s
          done;
          !s);
    }
  in
  Engine.run ?word_cap g program

let ints g values = exchange ~words:(fun _ -> 1) g values
let floats g values = exchange ~words:(fun _ -> 2) g values

let payloads ?edge_ok ?word_cap ~words g values =
  exchange ?word_cap ?edge_ok ~words g values
