let components adj =
  let n = Array.length adj in
  let index = Array.make n (-1) and low = Array.make n 0 in
  let on_stack = Array.make n false and comp = Array.make n (-1) in
  let stack = Stack.create () and calls = Stack.create () in
  let count = ref 0 and comps = ref 0 in
  let enter v =
    index.(v) <- !count;
    low.(v) <- !count;
    incr count;
    Stack.push v stack;
    on_stack.(v) <- true;
    Stack.push (v, ref adj.(v)) calls
  in
  let complete root =
    let c = !comps in
    incr comps;
    let rec pop () =
      let v = Stack.pop stack in
      on_stack.(v) <- false;
      comp.(v) <- c;
      if v <> root then pop ()
    in
    pop ()
  in
  for v0 = 0 to n - 1 do
    if index.(v0) < 0 then begin
      enter v0;
      while not (Stack.is_empty calls) do
        let v, rest = Stack.top calls in
        match !rest with
        | (_, w) :: tl ->
            rest := tl;
            if index.(w) < 0 then enter w
            else if on_stack.(w) then low.(v) <- min low.(v) index.(w)
        | [] ->
            ignore (Stack.pop calls);
            (match Stack.top_opt calls with
            | Some (p, _) -> low.(p) <- min low.(p) low.(v)
            | None -> ());
            if low.(v) = index.(v) then complete v
      done
    end
  done;
  (comp, !comps)
