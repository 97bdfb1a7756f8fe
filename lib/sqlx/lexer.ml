exception Error of string * int

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

(* Built once: an identifier is one hash probe, not a scan of the
   keyword list. *)
let keywords =
  let set = Hashtbl.create 128 in
  List.iter (fun k -> Hashtbl.replace set k ()) Token.keywords;
  set

let tokenize input =
  let n = String.length input in
  let tokens = ref [] in
  let emit offset token = tokens := (token, offset) :: !tokens in
  let rec skip_line i = if i < n && input.[i] <> '\n' then skip_line (i + 1) else i in
  let rec go i =
    if i >= n then emit i Token.Eof
    else
      match input.[i] with
      | ' ' | '\t' | '\n' | '\r' -> go (i + 1)
      | '-' when i + 1 < n && input.[i + 1] = '-' -> go (skip_line (i + 2))
      | '(' -> emit i Token.Lparen; go (i + 1)
      | ')' -> emit i Token.Rparen; go (i + 1)
      | ',' -> emit i Token.Comma; go (i + 1)
      | ';' -> emit i Token.Semicolon; go (i + 1)
      | '.' -> emit i Token.Dot; go (i + 1)
      | '*' -> emit i Token.Star; go (i + 1)
      | '=' -> emit i Token.Eq; go (i + 1)
      | '<' ->
        if i + 1 < n && input.[i + 1] = '>' then begin emit i Token.Neq; go (i + 2) end
        else if i + 1 < n && input.[i + 1] = '=' then begin emit i Token.Le; go (i + 2) end
        else begin emit i Token.Lt; go (i + 1) end
      | '>' ->
        if i + 1 < n && input.[i + 1] = '=' then begin emit i Token.Ge; go (i + 2) end
        else begin emit i Token.Gt; go (i + 1) end
      | '\'' -> string_lit (i + 1) i (Buffer.create 8)
      | '-' -> number i
      | c when is_digit c -> number i
      | c when is_ident_start c -> ident i
      | c -> raise (Error (Printf.sprintf "unexpected character %C" c, i))
  and string_lit i start buf =
    if i >= n then raise (Error ("unterminated string", start))
    else if input.[i] = '\'' then
      if i + 1 < n && input.[i + 1] = '\'' then begin
        Buffer.add_char buf '\'';
        string_lit (i + 2) start buf
      end
      else begin
        emit start (Token.String_lit (Buffer.contents buf));
        go (i + 1)
      end
    else begin
      Buffer.add_char buf input.[i];
      string_lit (i + 1) start buf
    end
  and number start =
    let i = if input.[start] = '-' then start + 1 else start in
    if i >= n || not (is_digit input.[i]) then
      raise (Error ("malformed number", start));
    let rec digits j = if j < n && is_digit input.[j] then digits (j + 1) else j in
    let int_end = digits i in
    if int_end < n && input.[int_end] = '.' && int_end + 1 < n
       && is_digit input.[int_end + 1]
    then begin
      let frac_end = digits (int_end + 1) in
      let text = String.sub input start (frac_end - start) in
      emit start (Token.Float_lit (float_of_string text));
      go frac_end
    end
    else begin
      let text = String.sub input start (int_end - start) in
      emit start (Token.Int_lit (int_of_string text));
      go int_end
    end
  and ident start =
    let rec scan j = if j < n && is_ident_char input.[j] then scan (j + 1) else j in
    let stop = scan start in
    let text = String.sub input start (stop - start) in
    let upper = String.uppercase_ascii text in
    if Hashtbl.mem keywords upper then emit start (Token.Keyword upper)
    else emit start (Token.Ident text);
    go stop
  in
  go 0;
  List.rev !tokens

(* Where [text]'s tokens start from offset [from] on, each flagged when
   it is a semicolon.  A character the lexer rejects counts as a token
   and lexing resumes after it; an unterminated string runs to the end
   of the text. *)
let rec marks text from =
  let rest = String.sub text from (String.length text - from) in
  let of_tokens =
    List.filter_map (fun (tok, off) ->
        match tok with
        | Token.Eof -> None
        | Token.Semicolon -> Some (from + off, true)
        | _ -> Some (from + off, false))
  in
  match tokenize rest with
  | tokens -> of_tokens tokens
  | exception Error (_, off) ->
    let before = of_tokens (tokenize (String.sub rest 0 off)) in
    if rest.[off] = '\'' then before @ [ (from + off, false) ]
    else before @ ((from + off, false) :: marks text (from + off + 1))

let split_statements text =
  let piece first stop = String.trim (String.sub text first (stop - first)) in
  let rec go first acc = function
    | [] ->
      let acc =
        match first with
        | Some f -> piece f (String.length text) :: acc
        | None -> acc
      in
      List.rev acc
    | (off, true) :: rest ->
      go None (match first with Some f -> piece f off :: acc | None -> acc) rest
    | (off, false) :: rest ->
      go (if first = None then Some off else first) acc rest
  in
  go None [] (marks text 0)
