open Expirel_sqlx

let tokens text = List.map fst (Lexer.tokenize text)

let tok = Alcotest.testable Token.pp Token.equal

let test_basic () =
  Alcotest.(check (list tok)) "statement"
    [ Token.Keyword "SELECT"; Token.Star; Token.Keyword "FROM";
      Token.Ident "pol"; Token.Semicolon; Token.Eof ]
    (tokens "SELECT * FROM pol;")

let test_case_insensitive_keywords () =
  Alcotest.(check (list tok)) "lowercase keywords"
    [ Token.Keyword "SELECT"; Token.Keyword "FROM"; Token.Eof ]
    (tokens "select from");
  Alcotest.(check (list tok)) "identifiers keep case"
    [ Token.Ident "MyTable"; Token.Eof ]
    (tokens "MyTable")

(* Every keyword lexes as itself whatever its case, and an identifier
   that only starts with one stays an identifier. *)
let test_every_keyword () =
  let mixed k =
    String.mapi (fun i c -> if i mod 2 = 0 then Char.lowercase_ascii c else c) k
  in
  List.iter
    (fun k ->
      List.iter
        (fun spelled ->
          Alcotest.(check (list tok)) spelled [ Token.Keyword k; Token.Eof ]
            (tokens spelled))
        [ String.lowercase_ascii k; k; mixed k ])
    Token.keywords;
  List.iter
    (fun ident ->
      Alcotest.(check (list tok)) ident [ Token.Ident ident; Token.Eof ] (tokens ident))
    [ "selected"; "count_"; "tickets"; "Fromage"; "at1"; "_by" ]

let test_literals () =
  Alcotest.(check (list tok)) "numbers"
    [ Token.Int_lit 42; Token.Int_lit (-7); Token.Float_lit 3.5; Token.Eof ]
    (tokens "42 -7 3.5");
  Alcotest.(check (list tok)) "strings with escaped quote"
    [ Token.String_lit "it's"; Token.Eof ]
    (tokens "'it''s'")

let test_operators () =
  Alcotest.(check (list tok)) "comparisons"
    [ Token.Eq; Token.Neq; Token.Lt; Token.Le; Token.Gt; Token.Ge; Token.Eof ]
    (tokens "= <> < <= > >=");
  Alcotest.(check (list tok)) "punctuation"
    [ Token.Lparen; Token.Rparen; Token.Comma; Token.Dot; Token.Eof ]
    (tokens "( ) , .")

let test_comments () =
  Alcotest.(check (list tok)) "line comment skipped"
    [ Token.Int_lit 1; Token.Int_lit 2; Token.Eof ]
    (tokens "1 -- everything here is ignored\n2")

let test_errors () =
  (match Lexer.tokenize "'unterminated" with
   | exception Lexer.Error (msg, 0) ->
     Alcotest.(check string) "unterminated" "unterminated string" msg
   | _ -> Alcotest.fail "expected lexer error");
  (match Lexer.tokenize "a ? b" with
   | exception Lexer.Error (_, 2) -> ()
   | _ -> Alcotest.fail "expected error at offset 2")

let test_split_statements () =
  let split = Alcotest.(check (list string)) in
  split "a ; inside a string literal stays"
    [ "CREATE TABLE t (a, b)"; "INSERT INTO t VALUES (1, 'x;y') TTL 5";
      "SELECT a, b FROM t" ]
    (Lexer.split_statements
       "CREATE TABLE t (a, b); INSERT INTO t VALUES (1, 'x;y') TTL 5; \
        SELECT a, b FROM t");
  split "comments and empty statements vanish" [ "SELECT 1"; "SELECT 2" ]
    (Lexer.split_statements "SELECT 1;; -- a ; b\n ;\n SELECT 2;\n");
  split "a rejected character stays in its statement"
    [ "ADD SHARD 127.0.0.1:7741"; "SHARDS" ]
    (Lexer.split_statements "ADD SHARD 127.0.0.1:7741;  -- new node\nSHARDS;");
  split "an unterminated string runs to the end" [ "SELECT 1"; "SELECT 'x;y; SELECT 2" ]
    (Lexer.split_statements "SELECT 1; SELECT 'x;y; SELECT 2");
  split "blank script" [] (Lexer.split_statements " \n-- only a comment\n")

let suite =
  [ Alcotest.test_case "basic statement" `Quick test_basic;
    Alcotest.test_case "keyword case-insensitivity" `Quick test_case_insensitive_keywords;
    Alcotest.test_case "every keyword in any case, extensions stay identifiers"
      `Quick test_every_keyword;
    Alcotest.test_case "literals" `Quick test_literals;
    Alcotest.test_case "operators" `Quick test_operators;
    Alcotest.test_case "comments" `Quick test_comments;
    Alcotest.test_case "errors with offsets" `Quick test_errors;
    Alcotest.test_case "split statements at ; tokens" `Quick
      test_split_statements ]
