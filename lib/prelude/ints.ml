let ceil_div a b =
  assert (b > 0);
  assert (a >= 0);
  (a + b - 1) / b

let round_up a m =
  assert (m > 0);
  ceil_div a m * m

let round_down a m =
  assert (m > 0);
  a / m * m

let is_multiple a m = m <> 0 && a mod m = 0

let clamp ~lo ~hi x =
  assert (lo <= hi);
  if x < lo then lo else if x > hi then hi else x

let pow b e =
  assert (e >= 0);
  let rec go acc e = if e = 0 then acc else go (acc * b) (e - 1) in
  go 1 e

let range ?(step = 1) lo hi =
  assert (step > 0);
  let rec go acc x = if x > hi then List.rev acc else go (x :: acc) (x + step) in
  go [] lo

let sum_by f xs = List.fold_left (fun acc x -> acc + f x) 0 xs

(* digits of [m <= 0] from the most significant, on the non-positive side
   so that [min_int] needs no special case *)
let rec add_digits buf m =
  if m <= -10 then add_digits buf (m / 10);
  Buffer.add_char buf (Char.unsafe_chr (48 - (m mod 10)))

let add_decimal buf n =
  if n < 0 then begin
    Buffer.add_char buf '-';
    add_digits buf n
  end
  else add_digits buf (-n)

let add_dims buf a =
  for i = 0 to Array.length a - 1 do
    if i > 0 then Buffer.add_char buf 'x';
    add_decimal buf a.(i)
  done
