"""MySQL data types and the type-category scheme used by the bridge.

The paper (Section 5.1) states that MySQL has 31 types which the metadata
provider groups into 12 *type categories* to keep the expression-OID space
manageable; two extra categories, ``STAR`` and ``ANY``, exist only for
aggregations (Section 5.2), for a total of 14.

The lessons-learned section (Section 7) records that an earlier provider
used a single coarse ``INT`` category, which prevented Orca from matching
indexes on integer-like columns, and that it was replaced by the three
refined categories ``INT2`` / ``INT4`` / ``INT8``.  This module implements
the refined scheme directly.
"""

from __future__ import annotations

import datetime
import enum
from dataclasses import dataclass
from typing import Optional


class MySQLType(enum.Enum):
    """The 31 MySQL field types modelled by this reproduction.

    Names follow MySQL's ``MYSQL_TYPE_*`` enumeration (with the historical
    duplicates such as NEWDATE / TIME2 / DATETIME2 / TIMESTAMP2 retained,
    because the 31-type count in the paper includes them).
    """

    TINY = "TINY"
    SHORT = "SHORT"
    INT24 = "INT24"
    LONG = "LONG"
    LONGLONG = "LONGLONG"
    YEAR = "YEAR"
    ENUM = "ENUM"
    SET = "SET"
    BOOL = "BOOL"
    DECIMAL = "DECIMAL"
    NEWDECIMAL = "NEWDECIMAL"
    FLOAT = "FLOAT"
    DOUBLE = "DOUBLE"
    VARCHAR = "VARCHAR"
    VAR_STRING = "VAR_STRING"
    STRING = "STRING"
    TINY_BLOB = "TINY_BLOB"
    MEDIUM_BLOB = "MEDIUM_BLOB"
    LONG_BLOB = "LONG_BLOB"
    BLOB = "BLOB"
    DATE = "DATE"
    NEWDATE = "NEWDATE"
    TIME = "TIME"
    TIME2 = "TIME2"
    DATETIME = "DATETIME"
    DATETIME2 = "DATETIME2"
    TIMESTAMP = "TIMESTAMP"
    TIMESTAMP2 = "TIMESTAMP2"
    BIT = "BIT"
    JSON = "JSON"
    GEOMETRY = "GEOMETRY"


class TypeCategory(enum.Enum):
    """The 12 type categories of Section 5.1 plus STAR/ANY (Section 5.2).

    STAR and ANY exist only as aggregation operands: ``COUNT(*)`` uses STAR
    and ``COUNT(expr)`` uses ANY, because COUNT behaves identically for
    every argument type.
    """

    INT2 = "INT2"
    INT4 = "INT4"
    INT8 = "INT8"
    NUM = "NUM"
    STR = "STR"
    BLB = "BLB"
    DAT = "DAT"
    TIM = "TIM"
    DTM = "DTM"
    BIT = "BIT"
    JSN = "JSN"
    GEO = "GEO"
    # Aggregation-only pseudo-categories:
    STAR = "STAR"
    ANY = "ANY"


#: The 12 categories usable as operands of arithmetic/comparison expressions.
SCALAR_CATEGORIES: tuple = (
    TypeCategory.INT2,
    TypeCategory.INT4,
    TypeCategory.INT8,
    TypeCategory.NUM,
    TypeCategory.STR,
    TypeCategory.BLB,
    TypeCategory.DAT,
    TypeCategory.TIM,
    TypeCategory.DTM,
    TypeCategory.BIT,
    TypeCategory.JSN,
    TypeCategory.GEO,
)

#: All 14 categories usable as aggregation operands.
AGGREGATE_CATEGORIES: tuple = SCALAR_CATEGORIES + (
    TypeCategory.STAR,
    TypeCategory.ANY,
)

#: Mapping of each of the 31 MySQL types to its type category.
TYPE_TO_CATEGORY = {
    MySQLType.TINY: TypeCategory.INT2,
    MySQLType.SHORT: TypeCategory.INT2,
    MySQLType.YEAR: TypeCategory.INT2,
    MySQLType.BOOL: TypeCategory.INT2,
    MySQLType.INT24: TypeCategory.INT4,
    MySQLType.LONG: TypeCategory.INT4,
    MySQLType.ENUM: TypeCategory.INT4,
    MySQLType.LONGLONG: TypeCategory.INT8,
    MySQLType.SET: TypeCategory.INT8,
    MySQLType.DECIMAL: TypeCategory.NUM,
    MySQLType.NEWDECIMAL: TypeCategory.NUM,
    MySQLType.FLOAT: TypeCategory.NUM,
    MySQLType.DOUBLE: TypeCategory.NUM,
    MySQLType.VARCHAR: TypeCategory.STR,
    MySQLType.VAR_STRING: TypeCategory.STR,
    MySQLType.STRING: TypeCategory.STR,
    MySQLType.TINY_BLOB: TypeCategory.BLB,
    MySQLType.MEDIUM_BLOB: TypeCategory.BLB,
    MySQLType.LONG_BLOB: TypeCategory.BLB,
    MySQLType.BLOB: TypeCategory.BLB,
    MySQLType.DATE: TypeCategory.DAT,
    MySQLType.NEWDATE: TypeCategory.DAT,
    MySQLType.TIME: TypeCategory.TIM,
    MySQLType.TIME2: TypeCategory.TIM,
    MySQLType.DATETIME: TypeCategory.DTM,
    MySQLType.DATETIME2: TypeCategory.DTM,
    MySQLType.TIMESTAMP: TypeCategory.DTM,
    MySQLType.TIMESTAMP2: TypeCategory.DTM,
    MySQLType.BIT: TypeCategory.BIT,
    MySQLType.JSON: TypeCategory.JSN,
    MySQLType.GEOMETRY: TypeCategory.GEO,
}

#: Fixed storage width in bytes of each type, or None for variable-length.
TYPE_LENGTHS = {
    MySQLType.TINY: 1,
    MySQLType.SHORT: 2,
    MySQLType.YEAR: 1,
    MySQLType.BOOL: 1,
    MySQLType.INT24: 3,
    MySQLType.LONG: 4,
    MySQLType.ENUM: 2,
    MySQLType.LONGLONG: 8,
    MySQLType.SET: 8,
    MySQLType.DECIMAL: 16,
    MySQLType.NEWDECIMAL: 16,
    MySQLType.FLOAT: 4,
    MySQLType.DOUBLE: 8,
    MySQLType.VARCHAR: None,
    MySQLType.VAR_STRING: None,
    MySQLType.STRING: None,
    MySQLType.TINY_BLOB: None,
    MySQLType.MEDIUM_BLOB: None,
    MySQLType.LONG_BLOB: None,
    MySQLType.BLOB: None,
    MySQLType.DATE: 3,
    MySQLType.NEWDATE: 3,
    MySQLType.TIME: 3,
    MySQLType.TIME2: 3,
    MySQLType.DATETIME: 8,
    MySQLType.DATETIME2: 8,
    MySQLType.TIMESTAMP: 4,
    MySQLType.TIMESTAMP2: 4,
    MySQLType.BIT: 8,
    MySQLType.JSON: None,
    MySQLType.GEOMETRY: None,
}

#: Types whose runtime values are Python ints.
INTEGER_TYPES = frozenset(
    t for t, c in TYPE_TO_CATEGORY.items()
    if c in (TypeCategory.INT2, TypeCategory.INT4, TypeCategory.INT8)
)

#: Types whose runtime values compare as text.
TEXT_TYPES = frozenset(
    t for t, c in TYPE_TO_CATEGORY.items()
    if c in (TypeCategory.STR, TypeCategory.BLB)
)


def category_of(mysql_type: MySQLType) -> TypeCategory:
    """Return the type category a MySQL type belongs to."""
    return TYPE_TO_CATEGORY[mysql_type]


def is_pass_by_value(mysql_type: MySQLType) -> bool:
    """Whether values of this type fit in a machine word (Orca metadata)."""
    length = TYPE_LENGTHS[mysql_type]
    return length is not None and length <= 8


def is_text_related(mysql_type: MySQLType) -> bool:
    """Whether Orca should treat the type as textual (Orca metadata)."""
    return mysql_type in TEXT_TYPES


@dataclass(frozen=True)
class TypeInstance:
    """A concrete use of a type: the type plus its modifier.

    The *type modifier* carries lengths for CHAR/VARCHAR and precision/scale
    for decimals, mirroring what the metadata provider sends to Orca
    (Section 5.1).
    """

    base: MySQLType
    modifier: Optional[int] = None

    @property
    def category(self) -> TypeCategory:
        return TYPE_TO_CATEGORY[self.base]

    @property
    def width(self) -> int:
        """Estimated stored width in bytes, used by both cost models."""
        fixed = TYPE_LENGTHS[self.base]
        if fixed is not None:
            return fixed
        if self.modifier is not None:
            # Variable-length columns are typically about half full.
            return max(1, self.modifier // 2)
        return 16

    def __str__(self) -> str:
        if self.modifier is None:
            return self.base.value
        return f"{self.base.value}({self.modifier})"


@dataclass(frozen=True)
class Interval:
    """A SQL interval literal, e.g. ``INTERVAL '3' MONTH``.

    Date arithmetic with month/year intervals cannot be expressed as a
    plain ``timedelta``, so months and days are tracked separately.
    """

    months: int = 0
    days: int = 0

    def add_to(self, value: datetime.date) -> datetime.date:
        """Return ``value + self`` with calendar-correct month arithmetic."""
        result = value
        if self.months:
            total = result.year * 12 + (result.month - 1) + self.months
            year, month = divmod(total, 12)
            month += 1
            day = min(result.day, _days_in_month(year, month))
            result = result.replace(year=year, month=month, day=day)
        if self.days:
            result = result + datetime.timedelta(days=self.days)
        return result

    def negate(self) -> "Interval":
        return Interval(months=-self.months, days=-self.days)


def _days_in_month(year: int, month: int) -> int:
    if month == 12:
        nxt = datetime.date(year + 1, 1, 1)
    else:
        nxt = datetime.date(year, month + 1, 1)
    return (nxt - datetime.timedelta(days=1)).day


# ---------------------------------------------------------------------------
# Runtime value helpers
# ---------------------------------------------------------------------------

def sql_compare(left, right) -> Optional[int]:
    """Three-way compare two runtime values with SQL NULL semantics.

    Returns -1 / 0 / +1, or ``None`` when either operand is NULL (the SQL
    UNKNOWN truth value).  Mixed numeric types compare numerically; dates
    compare chronologically; strings compare byte-wise (binary collation).
    """
    if left is None or right is None:
        return None
    if isinstance(left, bool):
        left = int(left)
    if isinstance(right, bool):
        right = int(right)
    if left < right:
        return -1
    if left > right:
        return 1
    return 0


def python_type_for(mysql_type: MySQLType):
    """The Python type used at runtime for values of a MySQL type."""
    category = TYPE_TO_CATEGORY[mysql_type]
    if category in (TypeCategory.INT2, TypeCategory.INT4, TypeCategory.INT8,
                    TypeCategory.BIT):
        return int
    if category is TypeCategory.NUM:
        return float
    if category in (TypeCategory.STR, TypeCategory.BLB, TypeCategory.JSN,
                    TypeCategory.GEO):
        return str
    if category is TypeCategory.DAT:
        return datetime.date
    if category is TypeCategory.TIM:
        return datetime.time
    if category is TypeCategory.DTM:
        return datetime.datetime
    raise ValueError(f"no runtime mapping for {mysql_type}")


def orders_like(kind: type, mysql_type: MySQLType) -> bool:
    """Whether values of Python type ``kind`` order like the stored
    values of ``mysql_type`` under plain Python comparison — what every
    scan, sort and index of the engine compares with: any int or float
    for a numeric type, exactly ``datetime.date`` for a date (a
    ``datetime`` does not compare with one), and the type's runtime
    class for the rest.  A load holds every non-NULL value to it, and
    DML uses an index only for literals that meet it."""
    target = python_type_for(mysql_type)
    if target in (int, float):
        return issubclass(kind, (int, float))
    if target is datetime.date:
        return kind is datetime.date
    return issubclass(kind, target)


def coerce(value, mysql_type: MySQLType):
    """Coerce a Python value to the runtime representation of a type.

    ``None`` (SQL NULL) passes through unchanged.
    """
    if value is None:
        return None
    target = python_type_for(mysql_type)
    if isinstance(value, target) and not (
            target is datetime.date and isinstance(value, datetime.datetime)):
        return value
    if target is int:
        return int(value)
    if target is float:
        return float(value)
    if target is str:
        return str(value)
    if target is datetime.date and isinstance(value, datetime.datetime):
        return value.date()
    if target is datetime.date and isinstance(value, str):
        return datetime.date.fromisoformat(value)
    if target is datetime.datetime and isinstance(value, str):
        return datetime.datetime.fromisoformat(value)
    raise ValueError(f"cannot coerce {value!r} to {mysql_type}")
