"""PII taxonomy.

The ten identifier classes tracked throughout the paper (Table 1's
"Leaked Identifiers" columns, Table 3's rows): Birthday, Device info,
Email address, Gender, Location, Name, Phone #, Username, PassWord, and
Unique IDentifiers.
"""

from __future__ import annotations

from enum import Enum


class PiiType(str, Enum):
    """One of the paper's ten personally-identifiable-information classes."""

    BIRTHDAY = "birthday"
    DEVICE_INFO = "device_info"
    EMAIL = "email"
    GENDER = "gender"
    LOCATION = "location"
    NAME = "name"
    PHONE = "phone"
    USERNAME = "username"
    PASSWORD = "password"
    UNIQUE_ID = "unique_id"

    @property
    def code(self) -> str:
        """The single/double-letter column code used in Table 1."""
        return _CODES[self]

    @property
    def label(self) -> str:
        """The human-readable row label used in Table 3."""
        return _LABELS[self]


_CODES = {
    PiiType.BIRTHDAY: "B",
    PiiType.DEVICE_INFO: "D",
    PiiType.EMAIL: "E",
    PiiType.GENDER: "G",
    PiiType.LOCATION: "L",
    PiiType.NAME: "N",
    PiiType.PHONE: "P#",
    PiiType.USERNAME: "U",
    PiiType.PASSWORD: "PW",
    PiiType.UNIQUE_ID: "UID",
}

_LABELS = {
    PiiType.BIRTHDAY: "Birthday",
    PiiType.DEVICE_INFO: "Device Name",
    PiiType.EMAIL: "Email",
    PiiType.GENDER: "Gender",
    PiiType.LOCATION: "Location",
    PiiType.NAME: "Name",
    PiiType.PHONE: "Phone #",
    PiiType.USERNAME: "Username",
    PiiType.PASSWORD: "Password",
    PiiType.UNIQUE_ID: "Unique ID",
}

# Canonical column order used by the table renderers (Table 1's order).
TABLE1_ORDER = (
    PiiType.BIRTHDAY,
    PiiType.DEVICE_INFO,
    PiiType.EMAIL,
    PiiType.GENDER,
    PiiType.LOCATION,
    PiiType.NAME,
    PiiType.PHONE,
    PiiType.USERNAME,
    PiiType.PASSWORD,
    PiiType.UNIQUE_ID,
)

ALL_PII_TYPES = tuple(PiiType)
