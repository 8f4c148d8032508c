"""Known rank-2 multiplication tables over the universal coefficients.

These are the reference values the package must reproduce exactly (they
double as regression goldens for the self-check command).  Coefficients are
polynomials in the integral generators a1..a5, written as ``CoeffPoly.__str__``
prints them, and ``MultiplicationTable.matches_reference`` compares them as
printed; "1" names the unit of the display basis and "pt" the class of a
point.
"""

# Each table: list of (left word, right word or None, {basis name: coeff}).
# A None right marks the decomposition of the longest basis class over the
# display basis {1} u {Z_w : w != w0}.

TABLE_A2 = [
    ("121", None, {"1": "1", "Z_1": "a2"}),
    ("12", "12", {"Z_2": "1"}),
    ("21", "21", {"Z_1": "1"}),
    ("12", "21", {"Z_1": "1", "Z_2": "1", "pt": "a1"}),
]

TABLE_B2 = [
    ("1212", None, {"1": "1", "Z_12": "2*a2", "Z_2": "a3 + -a1*a2"}),
    ("121", "121", {"Z_21": "1"}),
    ("212", "212", {"Z_12": "2", "Z_2": "a1"}),
    ("121", "212", {"Z_12": "1", "Z_21": "1", "Z_1": "a1", "Z_2": "a1",
                    "pt": "2*a2 + a1^2"}),
    ("121", "12", {"Z_1": "1", "Z_2": "1", "pt": "a1"}),
    ("121", "21", {"Z_1": "1"}),
    ("212", "12", {"Z_2": "1"}),
    ("212", "21", {"Z_1": "2", "Z_2": "1", "pt": "2*a1"}),
]

TABLE_G2 = [
    ("121212", None, {
        "1": "1",
        "Z_1212": "4*a2",
        "Z_212": "10*a3 + -10*a1*a2",
        "Z_12": "-4*a4 + -9*a1*a3 + -3*a2^2 + 9*a1^2*a2",
        "Z_2": "-54*a5 + 459*a1*a4 + 1188*a2*a3 + 108*a1^2*a3 + "
               "-1080*a1*a2^2 + -108*a1^3*a2",
    }),
    ("12121", "12121", {"Z_2121": "3", "Z_121": "3*a1",
                        "Z_21": "13*a2 + 2*a1^2",
                        "Z_1": "2*a3 + 7*a1*a2 + a1^3"}),
    ("21212", "21212", {"Z_1212": "1", "Z_12": "5*a2",
                        "Z_2": "6*a3 + -5*a1*a2"}),
    ("12121", "21212", {"Z_1212": "1", "Z_2121": "1", "Z_121": "a1",
                        "Z_212": "a1", "Z_12": "8*a2 + a1^2",
                        "Z_21": "8*a2 + a1^2",
                        "Z_1": "4*a3 + 8*a1*a2 + a1^3",
                        "Z_2": "10*a3 + 6*a1*a2 + a1^3",
                        "pt": "-4*a4 + a1*a3 + 13*a2^2 + 15*a1^2*a2 + a1^4"}),
    ("12121", "1212", {"Z_121": "1", "Z_212": "3", "Z_12": "4*a1",
                       "Z_21": "3*a1", "Z_1": "8*a2 + 4*a1^2",
                       "Z_2": "13*a2 + 5*a1^2",
                       "pt": "a3 + 16*a1*a2 + 5*a1^3"}),
    ("12121", "2121", {"Z_121": "2", "Z_21": "2*a1", "Z_1": "4*a2 + a1^2"}),
    ("21212", "1212", {"Z_212": "2", "Z_12": "a1", "Z_2": "4*a2"}),
    ("21212", "2121", {"Z_121": "1", "Z_212": "1", "Z_12": "a1", "Z_21": "a1",
                       "Z_1": "5*a2 + a1^2", "Z_2": "8*a2 + a1^2",
                       "pt": "3*a3 + 6*a1*a2 + a1^3"}),
    ("12121", "121", {"Z_21": "3", "Z_1": "2*a1"}),
    ("12121", "212", {"Z_12": "2", "Z_21": "1", "Z_1": "2*a1", "Z_2": "3*a1",
                      "pt": "4*a2 + 3*a1^2"}),
    ("21212", "121", {"Z_12": "1", "Z_21": "2", "Z_1": "2*a1", "Z_2": "2*a1",
                      "pt": "4*a2 + 2*a1^2"}),
    ("21212", "212", {"Z_12": "1"}),
    ("1212", "1212", {"Z_12": "2", "Z_2": "a1"}),
    ("2121", "2121", {"Z_21": "2", "Z_1": "a1"}),
    ("1212", "2121", {"Z_12": "2", "Z_21": "2", "Z_1": "3*a1", "Z_2": "4*a1",
                      "pt": "4*a2 + 4*a1^2"}),
    ("12121", "12", {"Z_1": "1", "Z_2": "3", "pt": "3*a1"}),
    ("12121", "21", {"Z_1": "1"}),
    ("21212", "12", {"Z_2": "1"}),
    ("21212", "21", {"Z_1": "1", "Z_2": "1", "pt": "a1"}),
    ("1212", "121", {"Z_1": "2", "Z_2": "3", "pt": "4*a1"}),
    ("1212", "212", {"Z_2": "1"}),
    ("2121", "121", {"Z_1": "1"}),
    ("2121", "212", {"Z_1": "1", "Z_2": "2", "pt": "2*a1"}),
]

REFERENCE_TABLES = {"A2": TABLE_A2, "B2": TABLE_B2, "G2": TABLE_G2}

REFERENCE_TORSION = {"A2": 1, "A3": 1, "B2": 1, "C2": 1, "C3": 1, "B3": 2, "G2": 2}

# Rank-4 torsion indices: 1 for the simply connected A_n and C_n (SL_n and
# Sp_n have torsion-free cohomology); 2 for Spin(9) and Spin(8), the values
# the per-monomial divided-difference evaluation gave; 6 for F4 (Totaro,
# "The torsion index of E8 and other groups", 2005).  Kept apart from
# REFERENCE_TORSION because F4 takes seconds, too long for ``check``.
RANK4_TORSION = {"A4": 1, "C4": 1, "B4": 2, "D4": 2, "F4": 6}
